#include "stats/random_orthogonal.h"

#include "common/check.h"
#include "linalg/orthogonal.h"

namespace randrecon {
namespace stats {

linalg::Matrix RandomOrthogonalMatrix(size_t m, Philox* rng) {
  RR_CHECK_GT(m, 0u);
  constexpr int kMaxAttempts = 8;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    linalg::Matrix candidate = rng->GaussianMatrix(m, m);
    Result<linalg::Matrix> q = linalg::GramSchmidtOrthonormalize(candidate);
    if (q.ok()) return q.value();
  }
  RR_CHECK(false) << "RandomOrthogonalMatrix: repeated rank-deficient draws";
  return linalg::Matrix::Identity(m);  // Unreachable.
}

}  // namespace stats
}  // namespace randrecon
