// Scalar probability distributions. The UDR reconstructor (§4.2)
// evaluates the noise density fR pointwise on a grid, so noise
// distributions expose Pdf(); samplers draw perturbation values.

#ifndef RANDRECON_STATS_DISTRIBUTION_H_
#define RANDRECON_STATS_DISTRIBUTION_H_

#include <memory>
#include <string>

#include "stats/philox.h"

namespace randrecon {
namespace stats {

/// Interface for a one-dimensional distribution.
class ScalarDistribution {
 public:
  virtual ~ScalarDistribution() = default;

  /// Density at x.
  virtual double Pdf(double x) const = 0;

  /// Cumulative distribution function at x.
  virtual double Cdf(double x) const = 0;

  /// Fills out[0..n) with elements [elem_begin, elem_begin + n) of this
  /// distribution's canonical draw sequence over `stream` (a pure
  /// function of stream identity and element index, independent of the
  /// stream cursor — see stats/philox.h).
  virtual void SampleSliceAt(const Philox& stream, uint64_t elem_begin,
                             double* out, size_t n) const = 0;

  virtual double Mean() const = 0;
  virtual double Variance() const = 0;

  /// Short display name, e.g. "Normal(0, 25)".
  virtual std::string ToString() const = 0;

  /// Deep copy (distributions are stored polymorphically in NoiseModel).
  virtual std::unique_ptr<ScalarDistribution> Clone() const = 0;
};

/// Normal distribution N(mean, stddev²).
class NormalDistribution final : public ScalarDistribution {
 public:
  NormalDistribution(double mean, double stddev);

  double Pdf(double x) const override;
  double Cdf(double x) const override;
  void SampleSliceAt(const Philox& stream, uint64_t elem_begin, double* out,
                     size_t n) const override;
  double Mean() const override { return mean_; }
  double Variance() const override { return stddev_ * stddev_; }
  double stddev() const { return stddev_; }
  std::string ToString() const override;
  std::unique_ptr<ScalarDistribution> Clone() const override;

 private:
  double mean_;
  double stddev_;
};

/// Uniform distribution on [lo, hi).
class UniformDistribution final : public ScalarDistribution {
 public:
  UniformDistribution(double lo, double hi);

  double Pdf(double x) const override;
  double Cdf(double x) const override;
  void SampleSliceAt(const Philox& stream, uint64_t elem_begin, double* out,
                     size_t n) const override;
  double Mean() const override { return 0.5 * (lo_ + hi_); }
  double Variance() const override { return (hi_ - lo_) * (hi_ - lo_) / 12.0; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::string ToString() const override;
  std::unique_ptr<ScalarDistribution> Clone() const override;

 private:
  double lo_;
  double hi_;
};

/// Laplace (double-exponential) distribution with density
/// 1/(2b) · exp(−|x − µ|/b). Variance = 2b². A common heavy-tailed
/// alternative perturbation; UDR's grid estimator handles it unchanged.
class LaplaceDistribution final : public ScalarDistribution {
 public:
  /// `scale` is b > 0.
  LaplaceDistribution(double mean, double scale);

  double Pdf(double x) const override;
  double Cdf(double x) const override;
  void SampleSliceAt(const Philox& stream, uint64_t elem_begin, double* out,
                     size_t n) const override;
  double Mean() const override { return mean_; }
  double Variance() const override { return 2.0 * scale_ * scale_; }
  double scale() const { return scale_; }
  std::string ToString() const override;
  std::unique_ptr<ScalarDistribution> Clone() const override;

 private:
  double mean_;
  double scale_;
};

/// Standard normal density φ(z) (shared helper).
double StandardNormalPdf(double z);

/// Standard normal CDF Φ(z) via erfc.
double StandardNormalCdf(double z);

}  // namespace stats
}  // namespace randrecon

#endif  // RANDRECON_STATS_DISTRIBUTION_H_
