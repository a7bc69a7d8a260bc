#include "stats/distribution.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/string_util.h"

namespace randrecon {
namespace stats {
namespace {
constexpr double kInvSqrt2Pi = 0.3989422804014326779;  // 1/sqrt(2π)
constexpr double kInvSqrt2 = 0.7071067811865475244;    // 1/sqrt(2)
}  // namespace

double StandardNormalPdf(double z) {
  return kInvSqrt2Pi * std::exp(-0.5 * z * z);
}

double StandardNormalCdf(double z) {
  return 0.5 * std::erfc(-z * kInvSqrt2);
}

NormalDistribution::NormalDistribution(double mean, double stddev)
    : mean_(mean), stddev_(stddev) {
  RR_CHECK_GT(stddev, 0.0) << "NormalDistribution needs positive stddev";
}

double NormalDistribution::Pdf(double x) const {
  return StandardNormalPdf((x - mean_) / stddev_) / stddev_;
}

double NormalDistribution::Cdf(double x) const {
  return StandardNormalCdf((x - mean_) / stddev_);
}

void NormalDistribution::SampleSliceAt(const Philox& stream,
                                       uint64_t elem_begin, double* out,
                                       size_t n) const {
  GaussianSliceAt(stream, mean_, stddev_, elem_begin, out, n);
}

std::string NormalDistribution::ToString() const {
  return "Normal(" + FormatDouble(mean_, 3) + ", " +
         FormatDouble(stddev_ * stddev_, 3) + ")";
}

std::unique_ptr<ScalarDistribution> NormalDistribution::Clone() const {
  return std::make_unique<NormalDistribution>(mean_, stddev_);
}

UniformDistribution::UniformDistribution(double lo, double hi)
    : lo_(lo), hi_(hi) {
  RR_CHECK_LT(lo, hi) << "UniformDistribution needs lo < hi";
}

double UniformDistribution::Pdf(double x) const {
  return (x >= lo_ && x < hi_) ? 1.0 / (hi_ - lo_) : 0.0;
}

double UniformDistribution::Cdf(double x) const {
  if (x < lo_) return 0.0;
  if (x >= hi_) return 1.0;
  return (x - lo_) / (hi_ - lo_);
}

void UniformDistribution::SampleSliceAt(const Philox& stream,
                                        uint64_t elem_begin, double* out,
                                        size_t n) const {
  UniformSliceAt(stream, lo_, hi_, elem_begin, out, n);
}

std::string UniformDistribution::ToString() const {
  return "Uniform[" + FormatDouble(lo_, 3) + ", " + FormatDouble(hi_, 3) + ")";
}

std::unique_ptr<ScalarDistribution> UniformDistribution::Clone() const {
  return std::make_unique<UniformDistribution>(lo_, hi_);
}

LaplaceDistribution::LaplaceDistribution(double mean, double scale)
    : mean_(mean), scale_(scale) {
  RR_CHECK_GT(scale, 0.0) << "LaplaceDistribution needs positive scale";
}

double LaplaceDistribution::Pdf(double x) const {
  return std::exp(-std::fabs(x - mean_) / scale_) / (2.0 * scale_);
}

double LaplaceDistribution::Cdf(double x) const {
  if (x < mean_) return 0.5 * std::exp((x - mean_) / scale_);
  return 1.0 - 0.5 * std::exp(-(x - mean_) / scale_);
}

void LaplaceDistribution::SampleSliceAt(const Philox& stream,
                                        uint64_t elem_begin, double* out,
                                        size_t n) const {
  // Inverse-CDF on a uniform u in [0, 1): x = mean - b sign(t) ln(1 - 2|t|)
  // with t = u - 1/2. The log goes through the substrate's Log01 so the
  // sequence is machine-stable like the core fills; the argument is
  // clamped away from 0 (u = 0 occurs with probability 2^-53).
  UniformSliceAt(stream, elem_begin, out, n);
  for (size_t i = 0; i < n; ++i) {
    const double t = out[i] - 0.5;
    const double arg = std::max(1.0 - 2.0 * std::fabs(t), 0x1.0p-53);
    const double pull = -scale_ * Log01(arg);
    out[i] = t < 0.0 ? mean_ - pull : mean_ + pull;
  }
}

std::string LaplaceDistribution::ToString() const {
  return "Laplace(" + FormatDouble(mean_, 3) + ", b=" +
         FormatDouble(scale_, 3) + ")";
}

std::unique_ptr<ScalarDistribution> LaplaceDistribution::Clone() const {
  return std::make_unique<LaplaceDistribution>(mean_, scale_);
}

}  // namespace stats
}  // namespace randrecon
