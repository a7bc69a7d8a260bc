#include "stats/dissimilarity.h"

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/matrix_util.h"
#include "stats/moments.h"
#include "stats/rng.h"

namespace randrecon {
namespace stats {
namespace {

using linalg::Matrix;

TEST(DissimilarityTest, IdenticalMatricesGiveZero) {
  Matrix corr{{1.0, 0.5}, {0.5, 1.0}};
  auto d = CorrelationDissimilarity(corr, corr);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d.value(), 0.0);
}

TEST(DissimilarityTest, KnownTwoByTwo) {
  Matrix a{{1.0, 0.8}, {0.8, 1.0}};
  Matrix b{{1.0, 0.2}, {0.2, 1.0}};
  // Off-diagonal squared sum = 2 · 0.6² = 0.72; RMS = sqrt(0.72 / 2) = 0.6.
  auto d = CorrelationDissimilarity(a, b);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d.value(), 0.6, 1e-12);
}

TEST(DissimilarityTest, LiteralFormScalesBySqrtCount) {
  Matrix a{{1.0, 0.8}, {0.8, 1.0}};
  Matrix b{{1.0, 0.2}, {0.2, 1.0}};
  auto rms = CorrelationDissimilarity(a, b);
  auto lit = CorrelationDissimilarityLiteral(a, b);
  ASSERT_TRUE(rms.ok());
  ASSERT_TRUE(lit.ok());
  // Literal = RMS / sqrt(m² − m).
  EXPECT_NEAR(lit.value(), rms.value() / std::sqrt(2.0), 1e-12);
}

TEST(DissimilarityTest, DiagonalDifferencesAreIgnored) {
  Matrix a{{1.0, 0.3}, {0.3, 1.0}};
  Matrix b{{99.0, 0.3}, {0.3, -5.0}};  // Crazy diagonal, same off-diagonal.
  auto d = CorrelationDissimilarity(a, b);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d.value(), 0.0);
}

TEST(DissimilarityTest, SymmetricInArguments) {
  Matrix a{{1.0, 0.7, 0.1}, {0.7, 1.0, 0.2}, {0.1, 0.2, 1.0}};
  Matrix b = Matrix::Identity(3);
  auto d1 = CorrelationDissimilarity(a, b);
  auto d2 = CorrelationDissimilarity(b, a);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_DOUBLE_EQ(d1.value(), d2.value());
}

TEST(DissimilarityTest, RejectsMismatchedSizes) {
  EXPECT_FALSE(
      CorrelationDissimilarity(Matrix::Identity(2), Matrix::Identity(3)).ok());
}

TEST(DissimilarityTest, RejectsNonSquare) {
  EXPECT_FALSE(
      CorrelationDissimilarity(Matrix(2, 3), Matrix(2, 3)).ok());
}

TEST(DissimilarityTest, RejectsOneByOne) {
  EXPECT_FALSE(
      CorrelationDissimilarity(Matrix::Identity(1), Matrix::Identity(1)).ok());
}

TEST(DissimilarityTest, IndependentNoiseDistance) {
  Matrix corr{{1.0, 0.6}, {0.6, 1.0}};
  auto d = DissimilarityToIndependentNoise(corr);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d.value(), 0.6, 1e-12);  // vs identity: RMS of {0.6, 0.6}.
}

TEST(DissimilarityTest, BoundedByTwo) {
  // Correlations are in [-1, 1], so entries differ by at most 2.
  Matrix a{{1.0, 1.0}, {1.0, 1.0}};
  Matrix b{{1.0, -1.0}, {-1.0, 1.0}};
  auto d = CorrelationDissimilarity(a, b);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d.value(), 2.0, 1e-12);
}

TEST(DissimilarityTest, MimickedNoiseIsLessDissimilarThanIndependent) {
  // The §8 defense argument in metric form: noise with the data's own
  // correlation structure has dissimilarity 0, independent noise > 0.
  Rng rng(52);
  Matrix x(800, 3);
  for (size_t i = 0; i < 800; ++i) {
    const double f = rng.Gaussian();
    x(i, 0) = f + rng.Gaussian(0.0, 0.3);
    x(i, 1) = f + rng.Gaussian(0.0, 0.3);
    x(i, 2) = -f + rng.Gaussian(0.0, 0.3);
  }
  const Matrix corr_x = SampleCorrelation(x);
  auto mimic = CorrelationDissimilarity(corr_x, corr_x);
  auto indep = DissimilarityToIndependentNoise(corr_x);
  ASSERT_TRUE(mimic.ok());
  ASSERT_TRUE(indep.ok());
  EXPECT_DOUBLE_EQ(mimic.value(), 0.0);
  EXPECT_GT(indep.value(), 0.5);
}

}  // namespace
}  // namespace stats
}  // namespace randrecon
