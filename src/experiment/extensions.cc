#include "experiment/extensions.h"

#include <cmath>

#include "core/be_dr.h"
#include "core/partial_disclosure.h"
#include "core/serial_reconstruction.h"
#include "data/synthetic.h"
#include "data/timeseries.h"
#include "perturb/schemes.h"
#include "stats/moments.h"

namespace randrecon {
namespace experiment {
namespace {

uint64_t DeriveSeed(uint64_t base, size_t point, size_t trial) {
  uint64_t h = base;
  h ^= (static_cast<uint64_t>(point) + 1) * 0x9E3779B97F4A7C15ULL;
  h ^= (static_cast<uint64_t>(trial) + 1) * 0xC2B2AE3D27D4EB4FULL;
  h ^= h >> 29;
  return h;
}

double UnknownColumnsRmse(const linalg::Matrix& x, const linalg::Matrix& x_hat,
                          size_t num_known) {
  double sum = 0.0;
  size_t count = 0;
  for (size_t j = num_known; j < x.cols(); ++j) {
    for (size_t i = 0; i < x.rows(); ++i) {
      const double d = x(i, j) - x_hat(i, j);
      sum += d * d;
      ++count;
    }
  }
  return count > 0 ? std::sqrt(sum / static_cast<double>(count)) : 0.0;
}

double SeriesRmse(const linalg::Vector& a, const linalg::Vector& b) {
  double sum = 0.0;
  for (size_t t = 0; t < a.size(); ++t) sum += (a[t] - b[t]) * (a[t] - b[t]);
  return std::sqrt(sum / static_cast<double>(a.size()));
}

}  // namespace

Result<ExperimentResult> RunPartialDisclosureSweep(
    const PartialDisclosureConfig& config) {
  RR_RETURN_NOT_OK(config.common.Validate());
  if (config.num_principal == 0 ||
      config.num_principal > config.num_attributes) {
    return Status::InvalidArgument("PartialDisclosureSweep: bad principal count");
  }
  for (size_t k : config.known_counts) {
    if (k >= config.num_attributes) {
      return Status::InvalidArgument(
          "PartialDisclosureSweep: known count " + std::to_string(k) +
          " must be < m");
    }
  }

  ExperimentResult result;
  result.experiment_id = "Extension E1";
  result.title = "Partial value disclosure: privacy of the unknown attributes";
  result.x_label = "known_attributes";
  result.y_label = "Root Mean Square Error (unknown attributes)";
  Series est{"est", {}};
  Series oracle{"oracle", {}};

  size_t point = 0;
  for (size_t k : config.known_counts) {
    double est_sum = 0.0;
    double oracle_sum = 0.0;
    for (size_t trial = 0; trial < config.common.num_trials; ++trial) {
      stats::Philox rng(DeriveSeed(config.common.seed, point, trial));
      data::SyntheticDatasetSpec spec;
      spec.eigenvalues = data::TwoLevelSpectrumWithTrace(
          config.num_attributes, config.num_principal,
          config.residual_eigenvalue, config.common.per_attribute_variance);
      RR_ASSIGN_OR_RETURN(
          data::SyntheticDataset synthetic,
          data::GenerateSpectrumDataset(spec, config.common.num_records, &rng));
      auto scheme = perturb::IndependentNoiseScheme::Gaussian(
          config.num_attributes, config.common.noise_stddev);
      RR_ASSIGN_OR_RETURN(data::Dataset disguised,
                          scheme.Disguise(synthetic.dataset, &rng));
      const linalg::Matrix& x = synthetic.dataset.records();

      std::vector<size_t> known;
      linalg::Matrix known_values(x.rows(), k);
      for (size_t j = 0; j < k; ++j) {
        known.push_back(j);
        for (size_t i = 0; i < x.rows(); ++i) known_values(i, j) = x(i, j);
      }
      core::PartialDisclosureReconstructor honest({known});
      core::BeDrOptions oracle_options;
      oracle_options.oracle_covariance = stats::SampleCovariance(x);
      oracle_options.oracle_mean = stats::ColumnMeans(x);
      core::PartialDisclosureReconstructor with_oracle({known},
                                                       oracle_options);
      RR_ASSIGN_OR_RETURN(linalg::Matrix honest_hat,
                          honest.Reconstruct(disguised.records(),
                                             scheme.noise_model(),
                                             known_values));
      RR_ASSIGN_OR_RETURN(linalg::Matrix oracle_hat,
                          with_oracle.Reconstruct(disguised.records(),
                                                  scheme.noise_model(),
                                                  known_values));
      est_sum += UnknownColumnsRmse(x, honest_hat, k);
      oracle_sum += UnknownColumnsRmse(x, oracle_hat, k);
    }
    const double trials = static_cast<double>(config.common.num_trials);
    est.points.push_back({static_cast<double>(k), est_sum / trials});
    oracle.points.push_back({static_cast<double>(k), oracle_sum / trials});
    ++point;
  }
  result.series = {std::move(est), std::move(oracle)};
  return result;
}

Result<ExperimentResult> RunSerialDependencySweep(
    const SerialDependencyConfig& config) {
  RR_RETURN_NOT_OK(config.common.Validate());
  if (config.stationary_stddev <= 0.0) {
    return Status::InvalidArgument(
        "SerialDependencySweep: stationary_stddev must be positive");
  }
  for (double rho : config.coefficients) {
    if (std::fabs(rho) >= 1.0) {
      return Status::InvalidArgument(
          "SerialDependencySweep: |coefficient| must be < 1");
    }
  }
  if (config.windows.empty()) {
    return Status::InvalidArgument("SerialDependencySweep: no windows");
  }

  ExperimentResult result;
  result.experiment_id = "Extension E2";
  result.title = "Serial dependency: de-noising an AR(1) series";
  result.x_label = "ar1_coefficient";
  result.y_label = "Root Mean Square Error";
  std::vector<Series> series;
  for (size_t window : config.windows) {
    series.push_back({"w=" + std::to_string(window), {}});
  }
  series.push_back({"NDR", {}});

  const double sigma = config.common.noise_stddev;
  size_t point = 0;
  for (double rho : config.coefficients) {
    std::vector<double> sums(config.windows.size() + 1, 0.0);
    for (size_t trial = 0; trial < config.common.num_trials; ++trial) {
      stats::Philox rng(DeriveSeed(config.common.seed, point, trial));
      data::Ar1Spec spec;
      spec.coefficient = rho;
      spec.innovation_stddev =
          config.stationary_stddev * std::sqrt(1.0 - rho * rho);
      RR_ASSIGN_OR_RETURN(
          linalg::Vector original,
          data::GenerateAr1Series(spec, config.common.num_records, &rng));
      linalg::Vector disguised = original;
      for (double& y : disguised) y += rng.Gaussian(0.0, sigma);

      for (size_t w = 0; w < config.windows.size(); ++w) {
        core::SerialReconstructionOptions options;
        options.window = config.windows[w];
        RR_ASSIGN_OR_RETURN(
            linalg::Vector estimate,
            core::SerialCorrelationReconstructor(options).Reconstruct(
                disguised, sigma * sigma));
        sums[w] += SeriesRmse(original, estimate);
      }
      sums.back() += SeriesRmse(original, disguised);
    }
    const double trials = static_cast<double>(config.common.num_trials);
    for (size_t s = 0; s < series.size(); ++s) {
      series[s].points.push_back({rho, sums[s] / trials});
    }
    ++point;
  }
  result.series = std::move(series);
  return result;
}

}  // namespace experiment
}  // namespace randrecon
