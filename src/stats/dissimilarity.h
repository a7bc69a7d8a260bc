// Correlation dissimilarity (Definition 8.1): the x-axis of the paper's
// Figure 4. Quantifies how differently two datasets' attributes are
// correlated; the improved randomization scheme (§8) aims to *minimize*
// dissimilarity between data and noise.

#ifndef RANDRECON_STATS_DISSIMILARITY_H_
#define RANDRECON_STATS_DISSIMILARITY_H_

#include "common/result.h"
#include "linalg/matrix.h"

namespace randrecon {
namespace stats {

/// Definition 8.1 applied to two correlation-coefficient matrices, in the
/// RMS reading:
///   Dis = sqrt( (1 / (m² − m)) · Σ_{i≠j} (CX(i,j) − CR(i,j))² ).
/// The paper's typeset formula places the 1/(m²−m) factor *outside* the
/// square root, but the x-axis range of its Figure 4 (0.04–0.2 at
/// m = 100) is only consistent with the RMS form — the literal form would
/// produce values ~99x smaller. We therefore use RMS here and expose the
/// literal reading as CorrelationDissimilarityLiteral. Fails with
/// InvalidArgument for non-square, mismatched or 1x1 inputs.
Result<double> CorrelationDissimilarity(const linalg::Matrix& corr_x,
                                        const linalg::Matrix& corr_r);

/// Definition 8.1 exactly as typeset:
///   Dis = (1 / (m² − m)) · sqrt( Σ_{i≠j} (CX(i,j) − CR(i,j))² ).
/// Equals CorrelationDissimilarity / sqrt(m² − m).
Result<double> CorrelationDissimilarityLiteral(const linalg::Matrix& corr_x,
                                               const linalg::Matrix& corr_r);

/// Dissimilarity between `corr_x` and the identity correlation matrix —
/// i.e. the x-coordinate of the paper's "noise is independent" vertical
/// line in Figure 4.
Result<double> DissimilarityToIndependentNoise(const linalg::Matrix& corr_x);

}  // namespace stats
}  // namespace randrecon

#endif  // RANDRECON_STATS_DISSIMILARITY_H_
