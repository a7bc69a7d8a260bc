#include "linalg/lu.h"

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/matrix_util.h"
#include "stats/rng.h"

namespace randrecon {
namespace linalg {
namespace {

TEST(LuTest, SolvesKnownSystem) {
  // x + y = 3, x - y = 1 -> x = 2, y = 1.
  Matrix a{{1, 1}, {1, -1}};
  auto lu = LuFactorization::Compute(a);
  ASSERT_TRUE(lu.ok());
  Vector x = lu.value().Solve(Vector{3, 1});
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(LuTest, SolvesSystemNeedingPivoting) {
  // Leading zero forces a row swap.
  Matrix a{{0, 1}, {1, 0}};
  auto lu = LuFactorization::Compute(a);
  ASSERT_TRUE(lu.ok());
  Vector x = lu.value().Solve(Vector{5, 7});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 5.0, 1e-12);
}

TEST(LuTest, InverseRoundTrip) {
  stats::Rng rng(3);
  Matrix a = rng.GaussianMatrix(9, 9);
  for (size_t i = 0; i < 9; ++i) a(i, i) += 5.0;  // Well-conditioned.
  auto lu = LuFactorization::Compute(a);
  ASSERT_TRUE(lu.ok());
  EXPECT_LT(MaxAbsDifference(a * lu.value().Inverse(), Matrix::Identity(9)),
            1e-9);
  EXPECT_LT(MaxAbsDifference(lu.value().Inverse() * a, Matrix::Identity(9)),
            1e-9);
}

TEST(LuTest, MatrixSolve) {
  stats::Rng rng(4);
  Matrix a = rng.GaussianMatrix(5, 5);
  for (size_t i = 0; i < 5; ++i) a(i, i) += 4.0;
  Matrix b = rng.GaussianMatrix(5, 2);
  auto lu = LuFactorization::Compute(a);
  ASSERT_TRUE(lu.ok());
  EXPECT_LT(MaxAbsDifference(a * lu.value().Solve(b), b), 1e-9);
}

TEST(LuTest, RejectsNonSquare) {
  auto lu = LuFactorization::Compute(Matrix(3, 2));
  EXPECT_FALSE(lu.ok());
  EXPECT_EQ(lu.status().code(), StatusCode::kInvalidArgument);
}

TEST(LuTest, RejectsSingular) {
  Matrix a{{1, 2}, {2, 4}};  // Rank 1.
  auto lu = LuFactorization::Compute(a);
  EXPECT_FALSE(lu.ok());
  EXPECT_EQ(lu.status().code(), StatusCode::kNumericalError);
}

TEST(LuTest, RejectsZeroMatrix) {
  auto lu = LuFactorization::Compute(Matrix(3, 3));
  EXPECT_FALSE(lu.ok());
}

TEST(LuTest, InvertMatrixConvenience) {
  auto inv = InvertMatrix(Matrix{{2, 0}, {0, 4}});
  ASSERT_TRUE(inv.ok());
  EXPECT_NEAR(inv.value()(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(inv.value()(1, 1), 0.25, 1e-12);
  EXPECT_FALSE(InvertMatrix(Matrix{{1, 1}, {1, 1}}).ok());
}

class LuSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(LuSizeSweep, RandomSystemsSolve) {
  const size_t m = GetParam();
  stats::Rng rng(400 + m);
  Matrix a = rng.GaussianMatrix(m, m);
  for (size_t i = 0; i < m; ++i) a(i, i) += 3.0 + static_cast<double>(m) * 0.1;
  Vector b = rng.GaussianVector(m);
  auto lu = LuFactorization::Compute(a);
  ASSERT_TRUE(lu.ok());
  Vector x = lu.value().Solve(b);
  Vector ax = a * x;
  for (size_t i = 0; i < m; ++i) EXPECT_NEAR(ax[i], b[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSizeSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

}  // namespace
}  // namespace linalg
}  // namespace randrecon
