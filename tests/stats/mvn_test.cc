#include "stats/mvn.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "linalg/eigen.h"
#include "linalg/matrix_util.h"
#include "stats/moments.h"
#include "stats/random_orthogonal.h"

namespace randrecon {
namespace stats {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(MvnTest, SampleShape) {
  auto sampler = MultivariateNormalSampler::CreateZeroMean(Matrix::Identity(3));
  ASSERT_TRUE(sampler.ok());
  Rng rng(1);
  Matrix sample = sampler.value().SampleMatrix(50, &rng);
  EXPECT_EQ(sample.rows(), 50u);
  EXPECT_EQ(sample.cols(), 3u);
}

TEST(MvnTest, MeanIsRespected) {
  Vector mean{5.0, -3.0};
  auto sampler = MultivariateNormalSampler::Create(mean, Matrix::Identity(2));
  ASSERT_TRUE(sampler.ok());
  Rng rng(2);
  Matrix sample = sampler.value().SampleMatrix(20000, &rng);
  const Vector sample_mean = ColumnMeans(sample);
  EXPECT_NEAR(sample_mean[0], 5.0, 0.05);
  EXPECT_NEAR(sample_mean[1], -3.0, 0.05);
}

TEST(MvnTest, CovarianceIsReproduced) {
  Matrix cov{{4.0, 1.5}, {1.5, 2.0}};
  auto sampler = MultivariateNormalSampler::CreateZeroMean(cov);
  ASSERT_TRUE(sampler.ok());
  Rng rng(3);
  Matrix sample = sampler.value().SampleMatrix(50000, &rng);
  Matrix sample_cov = SampleCovariance(sample);
  EXPECT_LT(linalg::MaxAbsDifference(sample_cov, cov), 0.1);
}

TEST(MvnTest, SingularCovarianceSamplesOnSubspace) {
  // Rank-1 covariance: all samples proportional to (1, 1).
  Matrix cov{{1.0, 1.0}, {1.0, 1.0}};
  auto sampler = MultivariateNormalSampler::CreateZeroMean(cov);
  ASSERT_TRUE(sampler.ok()) << sampler.status().ToString();
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const Vector x = sampler.value().SampleRecord(&rng);
    EXPECT_NEAR(x[0], x[1], 1e-9);
  }
}

TEST(MvnTest, ZeroCovarianceGivesConstantSamples) {
  auto sampler =
      MultivariateNormalSampler::Create({2.0, 3.0}, Matrix(2, 2));
  ASSERT_TRUE(sampler.ok());
  Rng rng(5);
  const Vector x = sampler.value().SampleRecord(&rng);
  EXPECT_DOUBLE_EQ(x[0], 2.0);
  EXPECT_DOUBLE_EQ(x[1], 3.0);
}

TEST(MvnTest, SpikedSpectrumCovarianceReproduced) {
  // The §7.1 shape: a few large eigenvalues, many tiny ones.
  Rng rng(6);
  const Vector spectrum{100.0, 100.0, 1.0, 1.0, 1.0, 1.0};
  Matrix q = RandomOrthogonalMatrix(6, &rng);
  Matrix cov = linalg::ComposeFromEigen(spectrum, q);
  auto sampler = MultivariateNormalSampler::CreateZeroMean(cov);
  ASSERT_TRUE(sampler.ok());
  Matrix sample = sampler.value().SampleMatrix(40000, &rng);
  Matrix sample_cov = SampleCovariance(sample);
  EXPECT_LT(linalg::MaxAbsDifference(sample_cov, cov),
            0.05 * linalg::FrobeniusNorm(cov));
}

TEST(MvnTest, RejectsNonSquareCovariance) {
  auto sampler = MultivariateNormalSampler::CreateZeroMean(Matrix(2, 3));
  EXPECT_FALSE(sampler.ok());
  EXPECT_EQ(sampler.status().code(), StatusCode::kInvalidArgument);
}

TEST(MvnTest, RejectsMeanLengthMismatch) {
  auto sampler =
      MultivariateNormalSampler::Create({1.0}, Matrix::Identity(2));
  EXPECT_FALSE(sampler.ok());
  EXPECT_EQ(sampler.status().code(), StatusCode::kInvalidArgument);
}

TEST(MvnTest, RejectsAsymmetricCovariance) {
  auto sampler =
      MultivariateNormalSampler::CreateZeroMean(Matrix{{1, 0.5}, {0, 1}});
  EXPECT_FALSE(sampler.ok());
}

TEST(MvnTest, RejectsIndefiniteCovariance) {
  auto sampler = MultivariateNormalSampler::CreateZeroMean(
      Matrix::Diagonal({1.0, -0.5}));
  EXPECT_FALSE(sampler.ok());
  EXPECT_EQ(sampler.status().code(), StatusCode::kNumericalError);
}

TEST(MvnTest, DeterministicGivenSeed) {
  Matrix cov{{2.0, 0.3}, {0.3, 1.0}};
  auto sampler = MultivariateNormalSampler::CreateZeroMean(cov);
  ASSERT_TRUE(sampler.ok());
  Rng rng1(77), rng2(77);
  Matrix a = sampler.value().SampleMatrix(10, &rng1);
  Matrix b = sampler.value().SampleMatrix(10, &rng2);
  EXPECT_TRUE(a == b);
}

TEST(MvnTest, BatchSampleMatrixReproducesMoments) {
  Matrix cov{{4.0, 1.5}, {1.5, 2.0}};
  Vector mean{1.0, -2.0};
  auto sampler = MultivariateNormalSampler::Create(mean, cov);
  ASSERT_TRUE(sampler.ok());
  Philox gen(42, 0);
  Matrix sample = sampler.value().SampleMatrix(60000, &gen);
  const Vector sample_mean = ColumnMeans(sample);
  EXPECT_NEAR(sample_mean[0], 1.0, 0.05);
  EXPECT_NEAR(sample_mean[1], -2.0, 0.05);
  const Matrix sample_cov = SampleCovariance(sample);
  EXPECT_NEAR(sample_cov(0, 0), 4.0, 0.15);
  EXPECT_NEAR(sample_cov(0, 1), 1.5, 0.1);
  EXPECT_NEAR(sample_cov(1, 1), 2.0, 0.1);
}

}  // namespace
}  // namespace stats
}  // namespace randrecon
