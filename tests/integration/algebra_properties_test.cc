// Property-based sweeps over the linear-algebra substrate: the algebraic
// laws every attack silently relies on, checked on random inputs across
// shapes (TEST_P).

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/cholesky.h"
#include "linalg/eigen.h"
#include "linalg/lu.h"
#include "linalg/matrix_util.h"
#include "linalg/vector_ops.h"
#include "stats/random_orthogonal.h"
#include "stats/rng.h"

namespace randrecon {
namespace linalg {
namespace {

class AlgebraSweep : public ::testing::TestWithParam<size_t> {
 protected:
  size_t m() const { return GetParam(); }
  stats::Rng MakeRng(uint64_t salt) const { return stats::Rng(salt * 1000 + m()); }
};

TEST_P(AlgebraSweep, MultiplicationIsAssociative) {
  stats::Rng rng = MakeRng(1);
  const Matrix a = rng.GaussianMatrix(m(), m());
  const Matrix b = rng.GaussianMatrix(m(), m());
  const Matrix c = rng.GaussianMatrix(m(), m());
  EXPECT_LT(MaxAbsDifference((a * b) * c, a * (b * c)),
            1e-9 * (1.0 + FrobeniusNorm(a) * FrobeniusNorm(b) *
                              FrobeniusNorm(c)));
}

TEST_P(AlgebraSweep, MultiplicationDistributesOverAddition) {
  stats::Rng rng = MakeRng(2);
  const Matrix a = rng.GaussianMatrix(m(), m());
  const Matrix b = rng.GaussianMatrix(m(), m());
  const Matrix c = rng.GaussianMatrix(m(), m());
  EXPECT_LT(MaxAbsDifference(a * (b + c), a * b + a * c), 1e-9 * m() * m());
}

TEST_P(AlgebraSweep, TransposeReversesProducts) {
  stats::Rng rng = MakeRng(3);
  const Matrix a = rng.GaussianMatrix(m(), m() + 2);
  const Matrix b = rng.GaussianMatrix(m() + 2, m());
  EXPECT_LT(MaxAbsDifference((a * b).Transpose(),
                             b.Transpose() * a.Transpose()),
            1e-9 * m() * m());
}

TEST_P(AlgebraSweep, TraceIsSimilarityInvariant) {
  // trace(QᵀAQ) = trace(A) for orthogonal Q — the identity behind
  // Theorem 5.2's "noise variance is evenly distributed".
  stats::Rng rng = MakeRng(4);
  const Matrix a = Symmetrize(rng.GaussianMatrix(m(), m()));
  const Matrix q = stats::RandomOrthogonalMatrix(m(), &rng);
  EXPECT_NEAR(Trace(q.Transpose() * a * q), Trace(a),
              1e-8 * (1.0 + std::fabs(Trace(a))));
}

TEST_P(AlgebraSweep, FrobeniusNormIsOrthogonallyInvariant) {
  stats::Rng rng = MakeRng(5);
  const Matrix a = rng.GaussianMatrix(m(), m());
  const Matrix q = stats::RandomOrthogonalMatrix(m(), &rng);
  EXPECT_NEAR(FrobeniusNorm(q * a), FrobeniusNorm(a),
              1e-9 * (1.0 + FrobeniusNorm(a)));
}

TEST_P(AlgebraSweep, CholeskyAndLuSolveAgreeOnSpd) {
  stats::Rng rng = MakeRng(6);
  Matrix g = rng.GaussianMatrix(m(), m());
  Matrix a = Symmetrize(g * g.Transpose());
  for (size_t i = 0; i < m(); ++i) a(i, i) += 1.0;
  const Vector b = rng.GaussianVector(m());
  auto chol = CholeskyFactorization::Compute(a);
  auto lu = LuFactorization::Compute(a);
  ASSERT_TRUE(chol.ok());
  ASSERT_TRUE(lu.ok());
  const Vector x1 = chol.value().Solve(b);
  const Vector x2 = lu.value().Solve(b);
  for (size_t i = 0; i < m(); ++i) EXPECT_NEAR(x1[i], x2[i], 1e-7);
}

TEST_P(AlgebraSweep, ProjectionMatrixIsIdempotentAndSymmetric) {
  // P = Q̂Q̂ᵀ with orthonormal Q̂ — the operator at the heart of PCA-DR
  // and SF.
  stats::Rng rng = MakeRng(9);
  const Matrix q = stats::RandomOrthogonalMatrix(m(), &rng);
  const size_t p = std::max<size_t>(1, m() / 2);
  const Matrix q_hat = q.LeftColumns(p);
  const Matrix projector = q_hat * q_hat.Transpose();
  EXPECT_LT(MaxAbsDifference(projector * projector, projector), 1e-9);
  EXPECT_TRUE(IsSymmetric(projector, 1e-10));
  EXPECT_NEAR(Trace(projector), static_cast<double>(p), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Dims, AlgebraSweep,
                         ::testing::Values(2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace linalg
}  // namespace randrecon
