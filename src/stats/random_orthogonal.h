// Random orthogonal matrices: step 2 of the §7.1 synthetic-data recipe
// ("we generate an orthogonal matrix Q ... each column of Q is an
// eigenvector").

#ifndef RANDRECON_STATS_RANDOM_ORTHOGONAL_H_
#define RANDRECON_STATS_RANDOM_ORTHOGONAL_H_

#include "common/result.h"
#include "linalg/matrix.h"
#include "stats/philox.h"

namespace randrecon {
namespace stats {

/// Draws an m x m orthogonal matrix by Gram-Schmidt-orthonormalizing a
/// matrix of i.i.d. N(0,1) entries, retrying on the (measure-zero, but
/// floating-point-possible) rank-deficient draw.
linalg::Matrix RandomOrthogonalMatrix(size_t m, Philox* rng);

}  // namespace stats
}  // namespace randrecon

#endif  // RANDRECON_STATS_RANDOM_ORTHOGONAL_H_
