#include "stats/density_reconstruction.h"

#include <cmath>

#include <gtest/gtest.h>

#include "stats/distribution.h"
#include "stats/rng.h"

namespace randrecon {
namespace stats {
namespace {

/// Disguises n samples of `original` with noise from `noise` and runs the
/// AS2000 reconstruction.
GridDensity ReconstructFor(const ScalarDistribution& original,
                           const ScalarDistribution& noise, size_t n,
                           uint64_t seed,
                           DensityReconstructionOptions options = {}) {
  const Rng rng(seed);
  linalg::Vector disguised(n), noise_draws(n);
  original.SampleSliceAt(rng.Substream(0), 0, disguised.data(), n);
  noise.SampleSliceAt(rng.Substream(1), 0, noise_draws.data(), n);
  for (size_t i = 0; i < n; ++i) disguised[i] += noise_draws[i];
  auto result = ReconstructDensity(disguised, noise, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value();
}

TEST(GridDensityTest, ValueAtInterpolatesAndClampsToZero) {
  GridDensity d;
  d.points = {0.0, 1.0, 2.0};
  d.density = {0.0, 1.0, 0.0};
  d.step = 1.0;
  EXPECT_DOUBLE_EQ(d.ValueAt(1.0), 1.0);
  EXPECT_DOUBLE_EQ(d.ValueAt(0.5), 0.5);
  EXPECT_DOUBLE_EQ(d.ValueAt(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(d.ValueAt(3.0), 0.0);
}

TEST(GridDensityTest, MeanAndVarianceOfSymmetricTriangle) {
  GridDensity d;
  const size_t k = 201;
  d.step = 0.02;
  d.points.resize(k);
  d.density.resize(k);
  double mass = 0.0;
  for (size_t i = 0; i < k; ++i) {
    d.points[i] = -2.0 + d.step * static_cast<double>(i);
    d.density[i] = std::max(0.0, 1.0 - std::fabs(d.points[i]));
    mass += d.density[i] * d.step;
  }
  for (double& v : d.density) v /= mass;
  EXPECT_NEAR(d.Mean(), 0.0, 1e-9);
  EXPECT_NEAR(d.Variance(), 1.0 / 6.0, 1e-3);  // Triangular(−1,0,1).
}

TEST(DensityReconstructionTest, RecoversNormalMean) {
  NormalDistribution original(3.0, 2.0);
  NormalDistribution noise(0.0, 1.0);
  GridDensity fx = ReconstructFor(original, noise, 4000, 31);
  EXPECT_NEAR(fx.Mean(), 3.0, 0.15);
}

TEST(DensityReconstructionTest, RecoversNormalVarianceNotNoiseInflated) {
  // The whole point of AS2000: Var(fX) ≈ Var(X), not Var(X) + σ².
  NormalDistribution original(0.0, 2.0);
  NormalDistribution noise(0.0, 2.0);
  GridDensity fx = ReconstructFor(original, noise, 6000, 32);
  EXPECT_NEAR(fx.Variance(), 4.0, 0.8);
  // Compare: the raw disguised variance would be ≈ 8.
  EXPECT_LT(fx.Variance(), 6.0);
}

TEST(DensityReconstructionTest, RecoversBimodalShape) {
  // Mixture of N(-4, 0.8) and N(4, 0.8): the reconstruction must show two
  // modes even though the disguised data smears them.
  Rng rng(33);
  NormalDistribution left(-4.0, 0.8), right(4.0, 0.8);
  NormalDistribution noise(0.0, 1.0);
  linalg::Vector disguised(6000);
  for (size_t i = 0; i < disguised.size(); ++i) {
    const ScalarDistribution& component =
        rng.Uniform(0.0, 1.0) < 0.5
            ? static_cast<const ScalarDistribution&>(left)
            : static_cast<const ScalarDistribution&>(right);
    double x, r;
    component.SampleSliceAt(rng.Substream(1), i, &x, 1);
    noise.SampleSliceAt(rng.Substream(2), i, &r, 1);
    disguised[i] = x + r;
  }
  auto result = ReconstructDensity(disguised, noise);
  ASSERT_TRUE(result.ok());
  const GridDensity& fx = result.value();
  // Density near the modes dominates density at the center.
  EXPECT_GT(fx.ValueAt(-4.0), 3.0 * fx.ValueAt(0.0));
  EXPECT_GT(fx.ValueAt(4.0), 3.0 * fx.ValueAt(0.0));
}

TEST(DensityReconstructionTest, DensityIntegratesToOne) {
  NormalDistribution original(0.0, 1.0);
  NormalDistribution noise(0.0, 1.0);
  GridDensity fx = ReconstructFor(original, noise, 2000, 34);
  double mass = 0.0;
  for (double v : fx.density) mass += v;
  EXPECT_NEAR(mass * fx.step, 1.0, 1e-6);
}

TEST(DensityReconstructionTest, WorksWithUniformNoise) {
  NormalDistribution original(1.0, 1.5);
  UniformDistribution noise(-2.0, 2.0);
  GridDensity fx = ReconstructFor(original, noise, 4000, 35);
  EXPECT_NEAR(fx.Mean(), 1.0, 0.15);
  EXPECT_NEAR(fx.Variance(), 2.25, 0.8);
}

TEST(DensityReconstructionTest, RejectsEmptySample) {
  NormalDistribution noise(0.0, 1.0);
  auto result = ReconstructDensity({}, noise);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DensityReconstructionTest, RejectsTinyGrid) {
  NormalDistribution noise(0.0, 1.0);
  DensityReconstructionOptions options;
  options.grid_size = 1;
  auto result = ReconstructDensity({1.0, 2.0}, noise, options);
  EXPECT_FALSE(result.ok());
}

TEST(DensityReconstructionTest, ConstantSampleDoesNotCrash) {
  NormalDistribution noise(0.0, 1.0);
  auto result = ReconstructDensity({2.0, 2.0, 2.0}, noise);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().Mean(), 2.0, 0.5);
}

TEST(DensityReconstructionTest, MoreIterationsRefineEstimate) {
  NormalDistribution original(0.0, 3.0);
  NormalDistribution noise(0.0, 3.0);
  DensityReconstructionOptions one_iter;
  one_iter.max_iterations = 1;
  DensityReconstructionOptions many_iter;
  many_iter.max_iterations = 200;
  GridDensity rough = ReconstructFor(original, noise, 5000, 36, one_iter);
  GridDensity refined = ReconstructFor(original, noise, 5000, 36, many_iter);
  // The refined variance estimate must be strictly closer to Var(X) = 9;
  // a single EM step barely moves off the (noise-inflated) start.
  EXPECT_LT(std::fabs(refined.Variance() - 9.0),
            std::fabs(rough.Variance() - 9.0));
}

}  // namespace
}  // namespace stats
}  // namespace randrecon
