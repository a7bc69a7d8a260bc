#include "core/serial_reconstruction.h"

#include <cmath>

#include "core/be_dr.h"
#include "data/timeseries.h"
#include "perturb/noise_model.h"

namespace randrecon {
namespace core {

Result<linalg::Vector> SerialCorrelationReconstructor::Reconstruct(
    const linalg::Vector& disguised_series, double noise_variance) const {
  const size_t window = options_.window;
  if (window < 1) {
    return Status::InvalidArgument("SerialReconstruction: window must be >= 1");
  }
  if (noise_variance <= 0.0) {
    return Status::InvalidArgument(
        "SerialReconstruction: noise_variance must be positive");
  }
  if (disguised_series.size() < 2 * window) {
    return Status::InvalidArgument(
        "SerialReconstruction: series of length " +
        std::to_string(disguised_series.size()) +
        " is too short for window " + std::to_string(window));
  }

  // Embed: serial correlation -> attribute correlation.
  const linalg::Matrix windows =
      data::EmbedSeries(disguised_series, window);

  // Caveat on Theorem 5.1 here: within one window row the noise entries
  // are independent, and across rows each y_t reappears with the *same*
  // noise draw — which leaves the window-covariance estimate unbiased
  // (same diagonal-only shift), so the standard estimator still applies.
  const perturb::NoiseModel noise = perturb::NoiseModel::IndependentGaussian(
      window, std::sqrt(noise_variance));
  BayesEstimateReconstructor be;
  RR_ASSIGN_OR_RETURN(linalg::Matrix reconstructed_windows,
                      be.Reconstruct(windows, noise));

  // Un-embed: each sample's estimate is the average over the up-to-w
  // windows that contain it.
  return data::UnembedSeriesAverage(reconstructed_windows,
                                    disguised_series.size());
}

}  // namespace core
}  // namespace randrecon
