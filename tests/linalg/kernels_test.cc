// Equivalence tests for the blocked kernel layer: every kernel must agree
// with the plain reference loops it replaced to <= 1e-10 max abs
// difference, across shapes that exercise the blocked path, the small-size
// fallback, and the ragged edge tiles of both.

#include "linalg/kernels.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/matrix.h"
#include "linalg/matrix_util.h"
#include "stats/rng.h"

namespace randrecon {
namespace linalg {
namespace {

constexpr double kTol = 1e-10;

Matrix ReferenceMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) sum += a(i, k) * b(k, j);
      out(i, j) = sum;
    }
  }
  return out;
}

Matrix ReferenceGram(const Matrix& a, double denom) {
  Matrix out(a.cols(), a.cols());
  for (size_t p = 0; p < a.cols(); ++p) {
    for (size_t q = 0; q < a.cols(); ++q) {
      double sum = 0.0;
      for (size_t i = 0; i < a.rows(); ++i) sum += a(i, p) * a(i, q);
      out(p, q) = sum / denom;
    }
  }
  return out;
}

// The row-sequential column-pair loop GramAtAChunk's narrow path must
// reproduce bit for bit: each upper-triangle element accumulated over the
// records in order from +0.0, the strict lower triangle left zero.
std::vector<double> PlainGramChunk(const double* a, size_t rows, size_t m) {
  std::vector<double> partial(m * m, 0.0);
  for (size_t i = 0; i < rows; ++i) {
    const double* row = a + i * m;
    for (size_t p = 0; p < m; ++p) {
      const double v = row[p];
      double* partial_row = partial.data() + p * m;
      for (size_t q = p; q < m; ++q) partial_row[q] += v * row[q];
    }
  }
  return partial;
}

class KernelsEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KernelsEquivalenceTest, BlockedMatMulMatchesReference) {
  const size_t m = GetParam();
  stats::Rng rng(100 + m);
  const Matrix a = rng.GaussianMatrix(m, m);
  const Matrix b = rng.GaussianMatrix(m, m);
  EXPECT_LE(MaxAbsDifference(kernels::MatMul(a, b), ReferenceMatMul(a, b)),
            kTol);
}

TEST_P(KernelsEquivalenceTest, GramMatchesReference) {
  const size_t m = GetParam();
  stats::Rng rng(200 + m);
  const Matrix data = rng.GaussianMatrix(2 * m + 3, m);
  EXPECT_LE(MaxAbsDifference(kernels::GramMatrix(data, 7.0),
                             ReferenceGram(data, 7.0)),
            kTol);
}

TEST_P(KernelsEquivalenceTest, TransposeRoundTrip) {
  const size_t m = GetParam();
  stats::Rng rng(300 + m);
  const Matrix a = rng.GaussianMatrix(m, m + 5);
  const Matrix t = a.Transpose();
  ASSERT_EQ(t.rows(), a.cols());
  ASSERT_EQ(t.cols(), a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(t(j, i), a(i, j));
    }
  }
}

// Sizes straddle the blocked-path cutoff (~110^3 multiply-adds) and hit
// ragged micro-tile edges (non-multiples of the register tile).
INSTANTIATE_TEST_SUITE_P(Sizes, KernelsEquivalenceTest,
                         ::testing::Values(1, 2, 7, 17, 33, 65, 96, 130, 257));

TEST(KernelsTest, RectangularMatMulMatchesReference) {
  stats::Rng rng(42);
  const Matrix a = rng.GaussianMatrix(37, 211);
  const Matrix b = rng.GaussianMatrix(211, 53);
  EXPECT_LE(MaxAbsDifference(kernels::MatMul(a, b), ReferenceMatMul(a, b)),
            kTol);
}

TEST(KernelsTest, LargeMatMulTakesBlockedPath) {
  // 160^3 > the blocked cutoff, so this exercises packing + micro-kernel.
  stats::Rng rng(43);
  const Matrix a = rng.GaussianMatrix(160, 160);
  const Matrix b = rng.GaussianMatrix(160, 160);
  EXPECT_LE(MaxAbsDifference(kernels::MatMul(a, b), ReferenceMatMul(a, b)),
            kTol);
}

TEST(KernelsTest, MatMulTransposedMatchesReference) {
  stats::Rng rng(44);
  const Matrix a = rng.GaussianMatrix(45, 160);
  const Matrix b = rng.GaussianMatrix(31, 160);
  EXPECT_LE(MaxAbsDifference(kernels::MatMulTransposed(a, b),
                             ReferenceMatMul(a, b.Transpose())),
            kTol);
}

TEST(KernelsTest, MatMulTransposedLargeMatchesReference) {
  stats::Rng rng(45);
  const Matrix a = rng.GaussianMatrix(180, 150);
  const Matrix b = rng.GaussianMatrix(170, 150);
  EXPECT_LE(MaxAbsDifference(kernels::MatMulTransposed(a, b),
                             ReferenceMatMul(a, b.Transpose())),
            kTol);
}

TEST(KernelsTest, ProjectOntoBasisMatchesComposition) {
  stats::Rng rng(46);
  const Matrix x = rng.GaussianMatrix(300, 40);
  const Matrix basis = rng.GaussianMatrix(40, 12);
  const Matrix expected =
      ReferenceMatMul(ReferenceMatMul(x, basis), basis.Transpose());
  EXPECT_LE(MaxAbsDifference(kernels::ProjectOntoBasis(x, basis), expected),
            kTol);
}

TEST(KernelsTest, GramIsExactlySymmetric) {
  stats::Rng rng(47);
  const Matrix data = rng.GaussianMatrix(500, 130);  // Blocked path.
  const Matrix gram = kernels::GramMatrix(data, 500.0);
  for (size_t i = 0; i < gram.rows(); ++i) {
    for (size_t j = i + 1; j < gram.cols(); ++j) {
      ASSERT_EQ(gram(i, j), gram(j, i)) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(KernelsTest, TallSkinnyGramChunkedMatchesReference) {
  // n spans several kGramChunkRows record chunks with a ragged tail; m is
  // small enough that the record (k) dimension carries all parallelism.
  stats::Rng rng(49);
  const size_t n = 3 * kernels::kGramChunkRows + 513;
  const Matrix data = rng.GaussianMatrix(n, 24);
  EXPECT_LE(MaxAbsDifference(kernels::GramMatrix(data, 100.0),
                             ReferenceGram(data, 100.0)),
            kTol);
}

TEST(KernelsTest, GramChunkBoundaryExactSizes) {
  // Straddle the single-chunk fast path and the chunked merge.
  stats::Rng rng(50);
  for (size_t n : {kernels::kGramChunkRows, kernels::kGramChunkRows + 1}) {
    const Matrix data = rng.GaussianMatrix(n, 17);
    EXPECT_LE(MaxAbsDifference(kernels::GramMatrix(data, 3.0),
                               ReferenceGram(data, 3.0)),
              kTol)
        << "n=" << n;
  }
}

TEST(KernelsTest, TallSkinnyGramIsBitwiseThreadCountInvariant) {
  stats::Rng rng(51);
  const size_t n = 2 * kernels::kGramChunkRows + 777;
  const size_t m = 24;
  const Matrix data = rng.GaussianMatrix(n, m);
  Matrix serial(m, m);
  Matrix pooled(m, m);
  ParallelOptions one_thread;
  one_thread.num_threads = 1;
  ParallelOptions four_threads;
  four_threads.num_threads = 4;
  kernels::GramAtA(data.data(), n, m, serial.data(), one_thread);
  kernels::GramAtA(data.data(), n, m, pooled.data(), four_threads);
  EXPECT_EQ(MaxAbsDifference(serial, pooled), 0.0);
}

TEST(KernelsTest, TallSkinnyGramIsExactlySymmetric) {
  stats::Rng rng(52);
  const size_t n = kernels::kGramChunkRows + 999;
  const Matrix data = rng.GaussianMatrix(n, 12);
  const Matrix gram = kernels::GramMatrix(data, static_cast<double>(n));
  for (size_t i = 0; i < gram.rows(); ++i) {
    for (size_t j = i + 1; j < gram.cols(); ++j) {
      ASSERT_EQ(gram(i, j), gram(j, i)) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(KernelsTest, NarrowGramChunkIsBitwisePlainLoop) {
  // Every width up to 40 covers full and partial row tiles plus the
  // one-vector and scalar column tails of every SIMD build; the row counts
  // straddle the old m²·rows = 2^20 blocked cutoff (m = 16 at 4096 rows).
  std::vector<size_t> widths;
  for (size_t m = 1; m <= 40; ++m) widths.push_back(m);
  widths.push_back(kernels::kNarrowGramWidth);
  stats::Rng rng(53);
  for (size_t rows : {1, 2, 7, 255, 4095, 4096}) {
    for (size_t m : widths) {
      const Matrix data = rng.GaussianMatrix(rows, m);
      std::vector<double> partial(m * m,
                                  std::numeric_limits<double>::quiet_NaN());
      kernels::GramAtAChunk(data.data(), rows, m, partial.data());
      const std::vector<double> expected =
          PlainGramChunk(data.data(), rows, m);
      EXPECT_EQ(std::memcmp(partial.data(), expected.data(),
                            m * m * sizeof(double)),
                0)
          << "rows=" << rows << " m=" << m;
    }
  }
}

TEST(KernelsTest, GramChunkZeroTimesInfIsNaN) {
  // No zero-skip on either path: a zero column times an Inf partner is
  // NaN, wherever the pair lands (vector tile, scalar tail, blocked).
  for (size_t m : {size_t{2}, size_t{13}, size_t{16}, size_t{40},
                   kernels::kNarrowGramWidth, kernels::kNarrowGramWidth + 1}) {
    const size_t rows = 300;
    Matrix data(rows, m, 1.0);
    for (size_t i = 0; i < rows; ++i) data(i, 0) = 0.0;
    data(rows / 2, m - 1) = std::numeric_limits<double>::infinity();
    std::vector<double> partial(m * m);
    kernels::GramAtAChunk(data.data(), rows, m, partial.data());
    EXPECT_TRUE(std::isnan(partial[m - 1])) << "m=" << m;
    EXPECT_TRUE(std::isinf(partial[m * m - 1])) << "m=" << m;
    EXPECT_EQ(partial[0], 0.0) << "m=" << m;
  }
}

TEST(KernelsTest, OperatorStarRoutesThroughKernels) {
  stats::Rng rng(48);
  const Matrix a = rng.GaussianMatrix(140, 140);
  const Matrix b = rng.GaussianMatrix(140, 140);
  EXPECT_EQ(MaxAbsDifference(a * b, kernels::MatMul(a, b)), 0.0);
}

TEST(KernelsTest, EmptyAndDegenerateShapes) {
  const Matrix empty;
  EXPECT_TRUE(kernels::MatMul(empty, empty).empty());
  const Matrix row = Matrix(1, 4, 2.0);
  const Matrix col = Matrix(4, 1, 3.0);
  const Matrix prod = kernels::MatMul(row, col);
  ASSERT_EQ(prod.rows(), 1u);
  ASSERT_EQ(prod.cols(), 1u);
  EXPECT_DOUBLE_EQ(prod(0, 0), 24.0);
}

}  // namespace
}  // namespace linalg
}  // namespace randrecon
