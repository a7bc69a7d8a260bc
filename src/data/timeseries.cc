#include "data/timeseries.h"

#include <cmath>

#include "common/check.h"

namespace randrecon {
namespace data {

double Ar1StationaryVariance(const Ar1Spec& spec) {
  RR_CHECK_LT(std::fabs(spec.coefficient), 1.0);
  return spec.innovation_stddev * spec.innovation_stddev /
         (1.0 - spec.coefficient * spec.coefficient);
}

double Ar1Autocovariance(const Ar1Spec& spec, size_t lag) {
  return Ar1StationaryVariance(spec) *
         std::pow(spec.coefficient, static_cast<double>(lag));
}

Result<linalg::Vector> GenerateAr1Series(const Ar1Spec& spec, size_t length,
                                         stats::Philox* rng) {
  if (std::fabs(spec.coefficient) >= 1.0) {
    return Status::InvalidArgument(
        "GenerateAr1Series: |coefficient| must be < 1 for stationarity");
  }
  if (spec.innovation_stddev <= 0.0) {
    return Status::InvalidArgument(
        "GenerateAr1Series: innovation_stddev must be positive");
  }
  if (length == 0) {
    return Status::InvalidArgument("GenerateAr1Series: zero length");
  }
  linalg::Vector series(length);
  // Start from the stationary distribution so the whole series is
  // stationary (no burn-in needed).
  double state = rng->Gaussian(0.0, std::sqrt(Ar1StationaryVariance(spec)));
  series[0] = spec.mean + state;
  for (size_t t = 1; t < length; ++t) {
    state = spec.coefficient * state +
            rng->Gaussian(0.0, spec.innovation_stddev);
    series[t] = spec.mean + state;
  }
  return series;
}

linalg::Matrix EmbedSeries(const linalg::Vector& series, size_t window) {
  RR_CHECK_GE(window, 1u);
  RR_CHECK_LE(window, series.size()) << "window longer than series";
  const size_t num_windows = series.size() - window + 1;
  linalg::Matrix out(num_windows, window);
  for (size_t i = 0; i < num_windows; ++i) {
    double* row = out.row_data(i);
    for (size_t j = 0; j < window; ++j) row[j] = series[i + j];
  }
  return out;
}

linalg::Vector UnembedSeriesAverage(const linalg::Matrix& windows,
                                    size_t series_length) {
  const size_t window = windows.cols();
  RR_CHECK_GE(window, 1u);
  RR_CHECK_EQ(windows.rows(), series_length - window + 1)
      << "window matrix inconsistent with series length";
  linalg::Vector sums(series_length, 0.0);
  linalg::Vector counts(series_length, 0.0);
  for (size_t i = 0; i < windows.rows(); ++i) {
    const double* row = windows.row_data(i);
    for (size_t j = 0; j < window; ++j) {
      sums[i + j] += row[j];
      counts[i + j] += 1.0;
    }
  }
  for (size_t t = 0; t < series_length; ++t) sums[t] /= counts[t];
  return sums;
}

}  // namespace data
}  // namespace randrecon
