// NoiseModel: the *public* description of the randomization noise.
//
// Randomization-based PPDM publishes the noise distribution alongside the
// disguised data (the miners need it to reconstruct aggregate
// distributions), so the paper's adversary legitimately knows it. Every
// reconstructor takes a NoiseModel as its knowledge of R.

#ifndef RANDRECON_PERTURB_NOISE_MODEL_H_
#define RANDRECON_PERTURB_NOISE_MODEL_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"
#include "stats/distribution.h"

namespace randrecon {
namespace perturb {

/// Immutable description of an additive zero-mean noise process over m
/// attributes: either independent per-attribute scalar distributions or a
/// jointly Gaussian vector with full covariance Σr.
class NoiseModel {
 public:
  /// Independent N(0, stddev²) on every attribute — the classic
  /// Agrawal-Srikant randomization the paper attacks in §4-§7.
  static NoiseModel IndependentGaussian(size_t num_attributes, double stddev);

  /// Independent copies of an arbitrary scalar distribution per attribute.
  /// The distribution must have zero mean (paper assumption); fails with
  /// InvalidArgument otherwise.
  static Result<NoiseModel> Independent(
      std::unique_ptr<stats::ScalarDistribution> per_attribute,
      size_t num_attributes);

  /// Jointly Gaussian noise N(0, Σr) — the improved scheme of §8. Fails
  /// with InvalidArgument for a non-square/asymmetric covariance.
  static Result<NoiseModel> CorrelatedGaussian(linalg::Matrix covariance);

  NoiseModel(const NoiseModel& other);
  NoiseModel& operator=(const NoiseModel& other);
  NoiseModel(NoiseModel&&) = default;
  NoiseModel& operator=(NoiseModel&&) = default;

  size_t num_attributes() const { return covariance_.rows(); }

  /// True for the §8 correlated-Gaussian scheme; false for independent
  /// per-attribute noise.
  bool is_correlated() const { return correlated_; }

  /// Full noise covariance Σr (diagonal when independent).
  const linalg::Matrix& covariance() const { return covariance_; }

  /// Noise variance on attribute j (the σ² of Theorem 5.1).
  double Variance(size_t j) const { return covariance_(j, j); }

  /// True iff every attribute has the same noise variance (required by
  /// the scalar-σ² form of Theorem 5.1 / Eq. 11; the general forms accept
  /// any covariance).
  bool HasUniformVariance(double tol = 1e-12) const;

  /// Marginal distribution of the noise on attribute j, for UDR's
  /// pointwise fR evaluations.
  const stats::ScalarDistribution& Marginal(size_t j) const;

  /// Fills out[0..n) with elements [elem_begin, elem_begin + n) of
  /// marginal j's canonical sequence over `stream` (see
  /// ScalarDistribution::SampleSliceAt).
  void SampleMarginalSliceAt(size_t j, const stats::Philox& stream,
                             uint64_t elem_begin, double* out,
                             size_t n) const;

 private:
  NoiseModel(bool correlated, linalg::Matrix covariance,
             std::vector<std::unique_ptr<stats::ScalarDistribution>> marginals)
      : correlated_(correlated),
        covariance_(std::move(covariance)),
        marginals_(std::move(marginals)) {}

  bool correlated_ = false;
  linalg::Matrix covariance_;
  std::vector<std::unique_ptr<stats::ScalarDistribution>> marginals_;
};

}  // namespace perturb
}  // namespace randrecon

#endif  // RANDRECON_PERTURB_NOISE_MODEL_H_
