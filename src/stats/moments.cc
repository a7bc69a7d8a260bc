#include "stats/moments.h"

#include <cmath>

#include "common/check.h"
#include "linalg/matrix_util.h"
#include "stats/streaming_moments.h"

namespace randrecon {
namespace stats {

linalg::Vector ColumnMeans(const linalg::Matrix& data) {
  const size_t n = data.rows();
  const size_t m = data.cols();
  linalg::Vector means(m, 0.0);
  if (n == 0) return means;
  for (size_t i = 0; i < n; ++i) {
    const double* row = data.row_data(i);
    for (size_t j = 0; j < m; ++j) means[j] += row[j];
  }
  for (size_t j = 0; j < m; ++j) means[j] /= static_cast<double>(n);
  return means;
}

linalg::Vector ColumnVariances(const linalg::Matrix& data) {
  const size_t n = data.rows();
  const size_t m = data.cols();
  linalg::Vector vars(m, 0.0);
  if (n == 0) return vars;
  const linalg::Vector means = ColumnMeans(data);
  for (size_t i = 0; i < n; ++i) {
    const double* row = data.row_data(i);
    for (size_t j = 0; j < m; ++j) {
      const double d = row[j] - means[j];
      vars[j] += d * d;
    }
  }
  for (size_t j = 0; j < m; ++j) vars[j] /= static_cast<double>(n);
  return vars;
}

linalg::Matrix CenterColumns(const linalg::Matrix& data,
                             linalg::Vector* means_out) {
  const linalg::Vector means = ColumnMeans(data);
  linalg::Matrix centered = data;
  for (size_t i = 0; i < data.rows(); ++i) {
    double* row = centered.row_data(i);
    for (size_t j = 0; j < data.cols(); ++j) row[j] -= means[j];
  }
  if (means_out != nullptr) *means_out = means;
  return centered;
}

linalg::Matrix SampleCovariance(const linalg::Matrix& data, int ddof) {
  // The blocked Chan–Golub–LeVeque merge of stats::StreamingMoments, so
  // an out-of-core sweep over the same records reproduces these bits.
  StreamingMoments moments(data.cols());
  moments.Accumulate(data, data.rows());
  return moments.FinalizeCovariance(ddof);
}

linalg::Matrix SampleCorrelation(const linalg::Matrix& data) {
  return linalg::CovarianceToCorrelation(SampleCovariance(data));
}

double MeanSquareError(const linalg::Matrix& a, const linalg::Matrix& b) {
  RR_CHECK(a.rows() == b.rows() && a.cols() == b.cols()) << "shape mismatch";
  RR_CHECK_GT(a.size(), 0u);
  double sum = 0.0;
  const double* pa = a.data();
  const double* pb = b.data();
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = pa[i] - pb[i];
    sum += d * d;
  }
  return sum / static_cast<double>(a.size());
}

double RootMeanSquareError(const linalg::Matrix& a, const linalg::Matrix& b) {
  return std::sqrt(MeanSquareError(a, b));
}

linalg::Vector PerAttributeRmse(const linalg::Matrix& a,
                                const linalg::Matrix& b) {
  RR_CHECK(a.rows() == b.rows() && a.cols() == b.cols()) << "shape mismatch";
  RR_CHECK_GT(a.rows(), 0u);
  linalg::Vector out(a.cols(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      const double d = a(i, j) - b(i, j);
      out[j] += d * d;
    }
  }
  for (size_t j = 0; j < a.cols(); ++j) {
    out[j] = std::sqrt(out[j] / static_cast<double>(a.rows()));
  }
  return out;
}

}  // namespace stats
}  // namespace randrecon
