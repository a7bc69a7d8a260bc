// Sample-moment estimators over record matrices (n records x m
// attributes). These implement the estimation side of Theorem 5.1 and
// Theorem 8.2: the attacker only sees the disguised matrix Y and derives
// mean vectors and covariance matrices from it.

#ifndef RANDRECON_STATS_MOMENTS_H_
#define RANDRECON_STATS_MOMENTS_H_

#include "linalg/matrix.h"

namespace randrecon {
namespace stats {

/// Column means of `data` (length = cols).
linalg::Vector ColumnMeans(const linalg::Matrix& data);

/// Column variances (population convention, divide by n).
linalg::Vector ColumnVariances(const linalg::Matrix& data);

/// Returns `data` with each column's mean subtracted. `means_out`, if
/// non-null, receives the subtracted means so callers can add them back.
linalg::Matrix CenterColumns(const linalg::Matrix& data,
                             linalg::Vector* means_out = nullptr);

/// Sample covariance matrix (m x m). `ddof` = 0 for the population
/// convention (divide by n, matching the paper's large-n analysis),
/// 1 for the unbiased estimator (divide by n-1). Computed by merging
/// kGramChunkRows-record blocks in order (stats::StreamingMoments), so a
/// streamed covariance over the same records is bitwise this one.
linalg::Matrix SampleCovariance(const linalg::Matrix& data, int ddof = 0);

/// Matrix of sample correlation coefficients (diagonal = 1).
linalg::Matrix SampleCorrelation(const linalg::Matrix& data);

/// Root-mean-square difference over all n*m entries of two equally-shaped
/// record matrices — the paper's privacy measure (lower = more disclosure).
double RootMeanSquareError(const linalg::Matrix& a, const linalg::Matrix& b);

/// Mean square error over all entries (RMSE²).
double MeanSquareError(const linalg::Matrix& a, const linalg::Matrix& b);

/// Per-attribute RMSE: entry j is the RMSE restricted to column j.
linalg::Vector PerAttributeRmse(const linalg::Matrix& a,
                                const linalg::Matrix& b);

}  // namespace stats
}  // namespace randrecon

#endif  // RANDRECON_STATS_MOMENTS_H_
