// Randomization (data disguising) schemes: Y = X + R.
//
// `IndependentNoiseScheme` is the classic Agrawal-Srikant perturbation the
// paper attacks; `CorrelatedGaussianScheme` is the paper's §8 improvement
// where the noise correlation mimics the data correlation.

#ifndef RANDRECON_PERTURB_SCHEMES_H_
#define RANDRECON_PERTURB_SCHEMES_H_

#include <memory>

#include "common/result.h"
#include "data/dataset.h"
#include "perturb/noise_model.h"
#include "stats/mvn.h"
#include "stats/philox.h"

namespace randrecon {
namespace perturb {

/// Interface for an additive randomization scheme over m attributes.
class RandomizationScheme {
 public:
  virtual ~RandomizationScheme() = default;

  /// Number of attributes this scheme was configured for.
  virtual size_t num_attributes() const = 0;

  /// Draws an n x m noise matrix R: the first n records of the noise
  /// stream over gen->Substream(gen->Next64()), i.e. exactly what
  /// AddNoiseAt adds to a zero chunk.
  linalg::Matrix GenerateNoise(size_t num_records, stats::Philox* gen) const;

  /// Adds the noise of the absolute records [record_begin, record_begin +
  /// rows) of the noise stream derived from `base` into the leading rows
  /// of `chunk`. The noise of record i is a pure function of (base, i):
  /// draws come from fixed stats::kBatchBlockRows record blocks with
  /// counter-derived per-block substreams, so chunking and threading
  /// never change the stream.
  virtual void AddNoiseAt(const stats::Philox& base, uint64_t record_begin,
                          size_t rows, linalg::Matrix* chunk,
                          const ParallelOptions& options = {}) const = 0;

  /// The public knowledge an adversary has about this scheme's noise.
  virtual const NoiseModel& noise_model() const = 0;

  /// Disguises a dataset: returns Y = X + R. Fails with InvalidArgument
  /// if the dataset's attribute count doesn't match the scheme's.
  Result<data::Dataset> Disguise(const data::Dataset& original,
                                 stats::Philox* gen) const;
};

/// Independent per-attribute noise (same scalar distribution on each
/// attribute): the randomization of [Agrawal & Srikant 2000].
class IndependentNoiseScheme final : public RandomizationScheme {
 public:
  /// Gaussian N(0, stddev²) noise on each of m attributes.
  static IndependentNoiseScheme Gaussian(size_t num_attributes, double stddev);

  /// Uniform[-half_width, half_width) noise on each of m attributes.
  static IndependentNoiseScheme Uniform(size_t num_attributes,
                                        double half_width);

  size_t num_attributes() const override {
    return noise_model_.num_attributes();
  }
  void AddNoiseAt(const stats::Philox& base, uint64_t record_begin,
                  size_t rows, linalg::Matrix* chunk,
                  const ParallelOptions& options = {}) const override;
  const NoiseModel& noise_model() const override { return noise_model_; }

 private:
  // Tests build schemes over other marginals (e.g. Laplace) through it.
  friend class IndependentNoiseSchemeTestPeer;

  explicit IndependentNoiseScheme(NoiseModel model)
      : noise_model_(std::move(model)) {}

  NoiseModel noise_model_;
};

/// Jointly Gaussian noise N(0, Σr): the §8.1 improved randomization. Pass
/// Σr proportional to (or equal to) the data covariance to make the noise
/// correlation "similar" to the data.
class CorrelatedGaussianScheme final : public RandomizationScheme {
 public:
  /// Builds the scheme from an explicit noise covariance.
  static Result<CorrelatedGaussianScheme> Create(linalg::Matrix covariance);

  /// §8.1's headline recipe: Σr = scale · Σx, i.e. noise correlation
  /// identical to the data correlation. `scale` fixes the noise power
  /// (scale = σ²·m / trace(Σx) gives the same total noise energy as
  /// independent noise with variance σ²).
  static Result<CorrelatedGaussianScheme> MimicCovariance(
      const linalg::Matrix& data_covariance, double scale);

  /// Figure-4 recipe: noise shares the data's *eigenvectors* but has its
  /// own eigenvalue profile (reshaping eigenvalues tunes the correlation
  /// dissimilarity while the basis stays fixed).
  static Result<CorrelatedGaussianScheme> FromEigenstructure(
      const linalg::Matrix& eigenvectors,
      const linalg::Vector& noise_eigenvalues);

  size_t num_attributes() const override {
    return noise_model_.num_attributes();
  }
  /// Straddled edge blocks are regenerated in full on every call (the
  /// price of statelessness); prefer chunk sizes >= stats::kBatchBlockRows
  /// when streaming correlated noise.
  void AddNoiseAt(const stats::Philox& base, uint64_t record_begin,
                  size_t rows, linalg::Matrix* chunk,
                  const ParallelOptions& options = {}) const override;
  const NoiseModel& noise_model() const override { return noise_model_; }

 private:
  CorrelatedGaussianScheme(NoiseModel model,
                           stats::MultivariateNormalSampler sampler)
      : noise_model_(std::move(model)), sampler_(std::move(sampler)) {}

  NoiseModel noise_model_;
  stats::MultivariateNormalSampler sampler_;
};

/// Linearly interpolates two eigenvalue profiles (Figure 4's sweep knob):
/// result[i] = (1-t)·from[i] + t·to[i]. RR_CHECKs equal lengths and
/// t ∈ [0, 1].
linalg::Vector InterpolateSpectra(const linalg::Vector& from,
                                  const linalg::Vector& to, double t);

}  // namespace perturb
}  // namespace randrecon

#endif  // RANDRECON_PERTURB_SCHEMES_H_
