#include "perturb/noise_model.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/matrix_util.h"

namespace randrecon {
namespace perturb {
namespace {

using linalg::Matrix;

TEST(NoiseModelTest, IndependentGaussianBasics) {
  NoiseModel model = NoiseModel::IndependentGaussian(4, 5.0);
  EXPECT_EQ(model.num_attributes(), 4u);
  EXPECT_FALSE(model.is_correlated());
  EXPECT_TRUE(model.HasUniformVariance());
  for (size_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(model.Variance(j), 25.0);
}

TEST(NoiseModelTest, IndependentGaussianCovarianceIsDiagonal) {
  NoiseModel model = NoiseModel::IndependentGaussian(3, 2.0);
  const Matrix& cov = model.covariance();
  EXPECT_DOUBLE_EQ(cov(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(cov(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(cov(1, 2), 0.0);
}

TEST(NoiseModelTest, MarginalIsZeroMeanNormal) {
  NoiseModel model = NoiseModel::IndependentGaussian(2, 3.0);
  const stats::ScalarDistribution& marginal = model.Marginal(0);
  EXPECT_DOUBLE_EQ(marginal.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(marginal.Variance(), 9.0);
}

TEST(NoiseModelTest, IndependentCustomDistribution) {
  auto model = NoiseModel::Independent(
      std::make_unique<stats::UniformDistribution>(-3.0, 3.0), 5);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model.value().num_attributes(), 5u);
  EXPECT_NEAR(model.value().Variance(2), 3.0, 1e-12);
  EXPECT_FALSE(model.value().is_correlated());
}

TEST(NoiseModelTest, IndependentRejectsNonZeroMean) {
  auto model = NoiseModel::Independent(
      std::make_unique<stats::UniformDistribution>(0.0, 2.0), 3);
  EXPECT_FALSE(model.ok());
  EXPECT_NE(model.status().message().find("zero mean"), std::string::npos);
}

TEST(NoiseModelTest, IndependentRejectsNullAndZeroAttrs) {
  EXPECT_FALSE(NoiseModel::Independent(nullptr, 3).ok());
  EXPECT_FALSE(NoiseModel::Independent(
                   std::make_unique<stats::NormalDistribution>(0.0, 1.0), 0)
                   .ok());
}

TEST(NoiseModelTest, CorrelatedGaussianBasics) {
  Matrix cov{{4.0, 1.0}, {1.0, 2.0}};
  auto model = NoiseModel::CorrelatedGaussian(cov);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model.value().is_correlated());
  EXPECT_DOUBLE_EQ(model.value().Variance(0), 4.0);
  EXPECT_DOUBLE_EQ(model.value().Variance(1), 2.0);
  EXPECT_FALSE(model.value().HasUniformVariance());
  // Marginals reflect the diagonal.
  EXPECT_DOUBLE_EQ(model.value().Marginal(0).Variance(), 4.0);
}

TEST(NoiseModelTest, CorrelatedRejectsBadCovariance) {
  EXPECT_FALSE(NoiseModel::CorrelatedGaussian(Matrix(2, 3)).ok());
  EXPECT_FALSE(
      NoiseModel::CorrelatedGaussian(Matrix{{1.0, 0.9}, {0.2, 1.0}}).ok());
  // Non-positive diagonal.
  EXPECT_FALSE(
      NoiseModel::CorrelatedGaussian(Matrix{{0.0, 0.0}, {0.0, 1.0}}).ok());
}

TEST(NoiseModelTest, CopyIsDeep) {
  NoiseModel original = NoiseModel::IndependentGaussian(2, 1.0);
  NoiseModel copy = original;
  EXPECT_EQ(copy.num_attributes(), 2u);
  EXPECT_DOUBLE_EQ(copy.Marginal(1).Variance(), 1.0);
  NoiseModel assigned = NoiseModel::IndependentGaussian(3, 2.0);
  assigned = original;
  EXPECT_EQ(assigned.num_attributes(), 2u);
  EXPECT_DOUBLE_EQ(assigned.Variance(0), 1.0);
}

TEST(NoiseModelTest, HasUniformVarianceToleratesTinyDiffs) {
  Matrix cov = Matrix::Diagonal({1.0, 1.0 + 1e-14});
  auto model = NoiseModel::CorrelatedGaussian(cov);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model.value().HasUniformVariance(1e-12));
  EXPECT_FALSE(model.value().HasUniformVariance(1e-16));
}

TEST(NoiseModelTest, MarginalSliceMatchesDistributionStatistics) {
  const NoiseModel model = NoiseModel::IndependentGaussian(2, 3.0);
  const size_t n = 100000;
  std::vector<double> draws(n);
  model.SampleMarginalSliceAt(0, stats::Philox(5, 0), 0, draws.data(), n);
  double sum = 0.0, sq = 0.0;
  for (double v : draws) {
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(sq / n - mean * mean, 9.0, 0.2);
}

}  // namespace
}  // namespace perturb
}  // namespace randrecon
