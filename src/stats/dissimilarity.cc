#include "stats/dissimilarity.h"

#include <cmath>

namespace randrecon {
namespace stats {

namespace {

/// Σ_{i≠j} (CX − CR)² with Definition 8.1's validation; also outputs
/// m² − m.
Result<double> OffDiagonalSquaredSum(const linalg::Matrix& corr_x,
                                     const linalg::Matrix& corr_r,
                                     double* num_offdiag) {
  if (corr_x.rows() != corr_x.cols() || corr_r.rows() != corr_r.cols()) {
    return Status::InvalidArgument("CorrelationDissimilarity: not square");
  }
  if (corr_x.rows() != corr_r.rows()) {
    return Status::InvalidArgument("CorrelationDissimilarity: size mismatch");
  }
  const size_t m = corr_x.rows();
  if (m < 2) {
    return Status::InvalidArgument(
        "CorrelationDissimilarity: needs at least 2 attributes");
  }
  double sum = 0.0;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (i == j) continue;  // Diagonals are always 1; excluded by Def. 8.1.
      const double d = corr_x(i, j) - corr_r(i, j);
      sum += d * d;
    }
  }
  *num_offdiag = static_cast<double>(m * m - m);
  return sum;
}

}  // namespace

Result<double> CorrelationDissimilarity(const linalg::Matrix& corr_x,
                                        const linalg::Matrix& corr_r) {
  double num_offdiag = 0.0;
  RR_ASSIGN_OR_RETURN(double sum,
                      OffDiagonalSquaredSum(corr_x, corr_r, &num_offdiag));
  return std::sqrt(sum / num_offdiag);
}

Result<double> CorrelationDissimilarityLiteral(const linalg::Matrix& corr_x,
                                               const linalg::Matrix& corr_r) {
  double num_offdiag = 0.0;
  RR_ASSIGN_OR_RETURN(double sum,
                      OffDiagonalSquaredSum(corr_x, corr_r, &num_offdiag));
  return std::sqrt(sum) / num_offdiag;
}

Result<double> DissimilarityToIndependentNoise(const linalg::Matrix& corr_x) {
  return CorrelationDissimilarity(corr_x,
                                  linalg::Matrix::Identity(corr_x.rows()));
}

}  // namespace stats
}  // namespace randrecon
