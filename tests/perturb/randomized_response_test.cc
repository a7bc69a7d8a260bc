#include "perturb/randomized_response.h"

#include <cmath>

#include <gtest/gtest.h>

#include "stats/rng.h"

namespace randrecon {
namespace perturb {
namespace {

using linalg::Matrix;

BitVector MakeBits(double pi, size_t n, stats::Rng* rng) {
  BitVector bits(n);
  for (auto& bit : bits) {
    bit = rng->Uniform(0.0, 1.0) < pi ? 1 : 0;
  }
  return bits;
}

TEST(WarnerSchemeTest, CreateValidation) {
  EXPECT_TRUE(WarnerScheme::Create(0.8).ok());
  EXPECT_FALSE(WarnerScheme::Create(0.0).ok());
  EXPECT_FALSE(WarnerScheme::Create(1.0).ok());
  EXPECT_FALSE(WarnerScheme::Create(0.5).ok());  // Non-invertible channel.
}

TEST(WarnerSchemeTest, ProportionEstimateIsUnbiased) {
  stats::Rng rng(402);
  auto scheme = WarnerScheme::Create(0.75);
  ASSERT_TRUE(scheme.ok());
  const double true_pi = 0.3;
  const BitVector bits = MakeBits(true_pi, 200000, &rng);
  const BitVector disguised = scheme.value().DisguiseAll(bits, &rng);
  auto estimate = scheme.value().EstimateProportion(disguised);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(estimate.value(), true_pi, 0.01);
}

TEST(WarnerSchemeTest, EstimateClampedToUnitInterval) {
  auto scheme = WarnerScheme::Create(0.9);
  ASSERT_TRUE(scheme.ok());
  // All-zeros reported with high θ: raw inversion goes negative; clamp.
  auto estimate = scheme.value().EstimateProportion(BitVector(100, 0));
  ASSERT_TRUE(estimate.ok());
  EXPECT_GE(estimate.value(), 0.0);
  EXPECT_FALSE(scheme.value().EstimateProportion({}).ok());
}

TEST(WarnerSchemeTest, VarianceGrowsAsThetaApproachesHalf) {
  auto strong = WarnerScheme::Create(0.95);
  auto weak = WarnerScheme::Create(0.55);
  ASSERT_TRUE(strong.ok());
  ASSERT_TRUE(weak.ok());
  EXPECT_GT(weak.value().EstimatorVariance(0.3, 1000),
            10.0 * strong.value().EstimatorVariance(0.3, 1000));
}

TEST(WarnerSchemeTest, VarianceShrinksWithN) {
  auto scheme = WarnerScheme::Create(0.8);
  ASSERT_TRUE(scheme.ok());
  EXPECT_NEAR(scheme.value().EstimatorVariance(0.4, 4000),
              scheme.value().EstimatorVariance(0.4, 1000) / 4.0, 1e-12);
}

TEST(WarnerSchemeTest, PosteriorInterpolatesPriorAndCertainty) {
  // θ -> 1: reported bit is the truth; θ -> 0.5: posterior -> prior.
  auto strong = WarnerScheme::Create(0.999);
  auto weak = WarnerScheme::Create(0.501);
  ASSERT_TRUE(strong.ok());
  ASSERT_TRUE(weak.ok());
  EXPECT_GT(strong.value().PosteriorGivenReportedOne(0.2), 0.99);
  EXPECT_NEAR(weak.value().PosteriorGivenReportedOne(0.2), 0.2, 0.01);
}

class WarnerThetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(WarnerThetaSweep, EstimateRecoversTruthAcrossChannels) {
  const double theta = GetParam();
  stats::Rng rng(403 + static_cast<uint64_t>(theta * 100));
  auto scheme = WarnerScheme::Create(theta);
  ASSERT_TRUE(scheme.ok());
  const double true_pi = 0.62;
  const BitVector bits = MakeBits(true_pi, 300000, &rng);
  const BitVector disguised = scheme.value().DisguiseAll(bits, &rng);
  auto estimate = scheme.value().EstimateProportion(disguised);
  ASSERT_TRUE(estimate.ok());
  // Tolerance widens as the channel weakens (variance formula).
  const double tol =
      5.0 * std::sqrt(scheme.value().EstimatorVariance(true_pi, 300000));
  EXPECT_NEAR(estimate.value(), true_pi, tol) << "theta=" << theta;
}

INSTANTIATE_TEST_SUITE_P(Channels, WarnerThetaSweep,
                         ::testing::Values(0.55, 0.65, 0.8, 0.9, 0.99, 0.3,
                                           0.1));

TEST(MaskSchemeTest, DisguiseValidatesBits) {
  stats::Rng rng(404);
  auto scheme = MaskScheme::Create(0.9);
  ASSERT_TRUE(scheme.ok());
  Matrix bad{{0.0, 2.0}};
  EXPECT_FALSE(scheme.value().Disguise(bad, &rng).ok());
}

TEST(MaskSchemeTest, ItemSupportRecovered) {
  stats::Rng rng(405);
  auto scheme = MaskScheme::Create(0.85);
  ASSERT_TRUE(scheme.ok());
  const size_t n = 100000;
  Matrix transactions(n, 2);
  for (size_t i = 0; i < n; ++i) {
    transactions(i, 0) = rng.Uniform(0.0, 1.0) < 0.4 ? 1.0 : 0.0;
    transactions(i, 1) = rng.Uniform(0.0, 1.0) < 0.15 ? 1.0 : 0.0;
  }
  auto disguised = scheme.value().Disguise(transactions, &rng);
  ASSERT_TRUE(disguised.ok());
  auto support0 = scheme.value().EstimateItemSupport(disguised.value(), 0);
  auto support1 = scheme.value().EstimateItemSupport(disguised.value(), 1);
  ASSERT_TRUE(support0.ok());
  ASSERT_TRUE(support1.ok());
  EXPECT_NEAR(support0.value(), 0.4, 0.02);
  EXPECT_NEAR(support1.value(), 0.15, 0.02);
}

TEST(MaskSchemeTest, PairSupportRecovered) {
  // Items co-occur: item B present only when A is (support_AB = 0.3).
  stats::Rng rng(406);
  auto scheme = MaskScheme::Create(0.9);
  ASSERT_TRUE(scheme.ok());
  const size_t n = 150000;
  Matrix transactions(n, 2);
  for (size_t i = 0; i < n; ++i) {
    const bool a = rng.Uniform(0.0, 1.0) < 0.5;
    const bool b = a && rng.Uniform(0.0, 1.0) < 0.6;
    transactions(i, 0) = a ? 1.0 : 0.0;
    transactions(i, 1) = b ? 1.0 : 0.0;
  }
  auto disguised = scheme.value().Disguise(transactions, &rng);
  ASSERT_TRUE(disguised.ok());
  auto support = scheme.value().EstimatePairSupport(disguised.value(), 0, 1);
  ASSERT_TRUE(support.ok());
  EXPECT_NEAR(support.value(), 0.3, 0.02);
}

TEST(MaskSchemeTest, PairSupportValidation) {
  auto scheme = MaskScheme::Create(0.8);
  ASSERT_TRUE(scheme.ok());
  Matrix data(10, 3);
  EXPECT_FALSE(scheme.value().EstimatePairSupport(data, 0, 0).ok());
  EXPECT_FALSE(scheme.value().EstimatePairSupport(data, 0, 9).ok());
  EXPECT_FALSE(
      scheme.value().EstimatePairSupport(Matrix(0, 3), 0, 1).ok());
}

TEST(MaskSchemeTest, LowThetaStillRecoversSupportWithMoreSamples) {
  // Even an aggressive θ = 0.2 channel (80% flips) is invertible.
  stats::Rng rng(407);
  auto scheme = MaskScheme::Create(0.2);
  ASSERT_TRUE(scheme.ok());
  const size_t n = 200000;
  Matrix transactions(n, 1);
  for (size_t i = 0; i < n; ++i) {
    transactions(i, 0) = rng.Uniform(0.0, 1.0) < 0.25 ? 1.0 : 0.0;
  }
  auto disguised = scheme.value().Disguise(transactions, &rng);
  ASSERT_TRUE(disguised.ok());
  auto support = scheme.value().EstimateItemSupport(disguised.value(), 0);
  ASSERT_TRUE(support.ok());
  EXPECT_NEAR(support.value(), 0.25, 0.03);
}

TEST(WarnerSchemeTest, BatchDisguiseMatchesEstimatorContract) {
  auto scheme = WarnerScheme::Create(0.8);
  ASSERT_TRUE(scheme.ok());
  const size_t n = 50000;
  BitVector truth(n);
  for (size_t i = 0; i < n; ++i) truth[i] = i % 4 == 0 ? 1 : 0;  // pi = 0.25
  stats::Philox gen(11, 0);
  const BitVector disguised = scheme.value().DisguiseAll(truth, &gen);
  ASSERT_EQ(disguised.size(), n);
  auto pi = scheme.value().EstimateProportion(disguised);
  ASSERT_TRUE(pi.ok());
  EXPECT_NEAR(pi.value(), 0.25, 0.02);
  // Deterministic: same seed, same disguise.
  stats::Philox gen2(11, 0);
  EXPECT_EQ(scheme.value().DisguiseAll(truth, &gen2), disguised);
  // Different seeds flip different coins.
  stats::Philox gen3(12, 0);
  EXPECT_NE(scheme.value().DisguiseAll(truth, &gen3), disguised);
}

TEST(MaskSchemeTest, BatchDisguiseSupportsEstimation) {
  auto scheme = MaskScheme::Create(0.9);
  ASSERT_TRUE(scheme.ok());
  const size_t n = 40000;
  linalg::Matrix transactions(n, 2, 0.0);
  for (size_t i = 0; i < n; ++i) {
    transactions(i, 0) = i % 4 == 0 ? 1.0 : 0.0;  // support 0.25
    transactions(i, 1) = i % 2 == 0 ? 1.0 : 0.0;  // support 0.5
  }
  stats::Philox gen(19, 0);
  auto disguised = scheme.value().Disguise(transactions, &gen);
  ASSERT_TRUE(disguised.ok());
  auto support0 = scheme.value().EstimateItemSupport(disguised.value(), 0);
  auto support1 = scheme.value().EstimateItemSupport(disguised.value(), 1);
  ASSERT_TRUE(support0.ok());
  ASSERT_TRUE(support1.ok());
  EXPECT_NEAR(support0.value(), 0.25, 0.03);
  EXPECT_NEAR(support1.value(), 0.5, 0.03);
  // Batch disguise validates input like the scalar path.
  linalg::Matrix bad(1, 2, 0.5);
  stats::Philox gen2(1, 0);
  EXPECT_FALSE(scheme.value().Disguise(bad, &gen2).ok());
}

}  // namespace
}  // namespace perturb
}  // namespace randrecon
