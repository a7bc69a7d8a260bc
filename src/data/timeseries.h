// Serially dependent data (§3, second bullet): "for certain types of
// data, such as the time series data, there exists serial dependency
// among the samples. Even after perturbing the data with random noise,
// this dependency can still be recovered."
//
// This module provides the AR(1) generator used to demonstrate that
// claim, plus the sliding-window embedding that turns one series into a
// record matrix whose *attribute* correlation encodes the *serial*
// correlation — letting the paper's own attacks run unchanged.

#ifndef RANDRECON_DATA_TIMESERIES_H_
#define RANDRECON_DATA_TIMESERIES_H_

#include "common/result.h"
#include "linalg/matrix.h"
#include "stats/philox.h"

namespace randrecon {
namespace data {

/// First-order autoregressive process
///   x_t = mean + coefficient · (x_{t−1} − mean) + ε_t,
///   ε_t ~ N(0, innovation_stddev²).
struct Ar1Spec {
  /// |coefficient| < 1 (stationarity); 0 = white noise, →1 = near random
  /// walk (maximum serial dependence).
  double coefficient = 0.9;
  /// Innovation standard deviation.
  double innovation_stddev = 1.0;
  /// Process mean.
  double mean = 0.0;
};

/// Stationary variance of the process: innovation² / (1 − coefficient²).
double Ar1StationaryVariance(const Ar1Spec& spec);

/// Theoretical autocovariance at `lag`: stationary-variance · ρ^|lag|.
double Ar1Autocovariance(const Ar1Spec& spec, size_t lag);

/// Samples a length-`length` series started from the stationary
/// distribution. Fails with InvalidArgument for |coefficient| >= 1,
/// non-positive stddev or zero length.
Result<linalg::Vector> GenerateAr1Series(const Ar1Spec& spec, size_t length,
                                         stats::Philox* rng);

/// Sliding-window embedding: row i of the result is
/// (series[i], ..., series[i + window − 1]); shape
/// (length − window + 1) x window. RR_CHECKs window ∈ [1, length].
linalg::Matrix EmbedSeries(const linalg::Vector& series, size_t window);

/// Inverse of EmbedSeries under averaging: each time point's value is
/// the mean of its estimates across all windows that contain it.
/// RR_CHECKs that shapes are consistent with some EmbedSeries call.
linalg::Vector UnembedSeriesAverage(const linalg::Matrix& windows,
                                    size_t series_length);

}  // namespace data
}  // namespace randrecon

#endif  // RANDRECON_DATA_TIMESERIES_H_
