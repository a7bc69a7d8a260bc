// The determinism contract of the streaming accumulator: for ANY chunk
// size and ANY thread count, the streamed means/covariance are BITWISE
// identical to the in-memory stats::ColumnMeans / stats::SampleCovariance
// over the same records (exact 0.0 difference, not a tolerance) — plus
// the accuracy of the single-sweep block merge on badly offset data.

#include "stats/streaming_moments.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/matrix_util.h"
#include "stats/moments.h"
#include "stats/rng.h"

namespace randrecon {
namespace stats {
namespace {

using linalg::Matrix;

/// Streams `data` into a StreamingMoments in chunks of `chunk_rows` and
/// returns the finalized covariance.
Matrix StreamCovariance(const Matrix& data, size_t chunk_rows, int num_threads,
                        int ddof = 0, linalg::Vector* means_out = nullptr) {
  ParallelOptions options;
  options.num_threads = num_threads;
  StreamingMoments moments(data.cols(), options);
  for (size_t row = 0; row < data.rows(); row += chunk_rows) {
    const size_t rows = std::min(chunk_rows, data.rows() - row);
    moments.Accumulate(data.row_data(row), rows);
  }
  if (means_out != nullptr) *means_out = moments.means();
  return moments.FinalizeCovariance(ddof);
}

class StreamingMomentsChunkTest
    : public ::testing::TestWithParam<std::tuple<size_t, int, size_t>> {};

TEST_P(StreamingMomentsChunkTest, BitwiseEqualsSampleCovariance) {
  const size_t chunk_rows = std::get<0>(GetParam());
  const int num_threads = std::get<1>(GetParam());
  const size_t num_records = std::get<2>(GetParam());
  stats::Rng rng(7);
  // Large non-zero means make any raw-moment shortcut (Σxxᵀ/n − µµᵀ)
  // detectable; the record counts cover one partial block, a single row
  // past a block boundary, and ragged multi-block streams.
  Matrix data = rng.GaussianMatrix(num_records, 9);
  for (size_t i = 0; i < data.rows(); ++i) {
    for (size_t j = 0; j < data.cols(); ++j) {
      data(i, j) += 100.0 * static_cast<double>(j + 1);
    }
  }

  linalg::Vector streamed_means;
  const Matrix streamed =
      StreamCovariance(data, chunk_rows == 0 ? data.rows() : chunk_rows,
                       num_threads, /*ddof=*/0, &streamed_means);
  const Matrix in_memory = SampleCovariance(data);
  const linalg::Vector in_memory_means = ColumnMeans(data);

  ASSERT_EQ(streamed_means.size(), in_memory_means.size());
  for (size_t j = 0; j < in_memory_means.size(); ++j) {
    EXPECT_EQ(streamed_means[j], in_memory_means[j]) << "mean " << j;
  }
  EXPECT_EQ(linalg::MaxAbsDifference(streamed, in_memory), 0.0);
}

// Chunk size 0 is the sentinel for "whole dataset in one chunk".
INSTANTIATE_TEST_SUITE_P(
    ChunkSizesAndThreads, StreamingMomentsChunkTest,
    ::testing::Combine(
        ::testing::Values<size_t>(1, 7, 64, 0), ::testing::Values(1, 4),
        ::testing::Values<size_t>(1000, linalg::kernels::kGramChunkRows + 1,
                                  linalg::kernels::kGramChunkRows + 321,
                                  3 * linalg::kernels::kGramChunkRows + 777)));

TEST(StreamingMomentsTest, LargeOffsetsKeepFullPrecision) {
  // Column means near 1e6 with unit-scale spread: the case a one-pass
  // raw-moment formula loses ~12 digits on. Each block is moved into the
  // running mean's coordinates before its own mean is taken, so the
  // between-block term of the merge is computed from unit-scale values
  // and the result stays at the accuracy of a two-pass computation.
  // Reference: the two-pass formula in long double.
  stats::Rng rng(23);
  const size_t n = 5 * linalg::kernels::kGramChunkRows + 123;
  const size_t m = 6;
  Matrix data = rng.GaussianMatrix(n, m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      data(i, j) += 1e6 * (1.0 + 0.25 * static_cast<double>(j));
    }
  }

  std::vector<long double> mean(m, 0.0L);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) mean[j] += data(i, j);
  }
  for (long double& value : mean) value /= static_cast<long double>(n);
  std::vector<long double> reference(m * m, 0.0L);
  for (size_t i = 0; i < n; ++i) {
    for (size_t p = 0; p < m; ++p) {
      for (size_t q = 0; q < m; ++q) {
        reference[p * m + q] += (data(i, p) - mean[p]) * (data(i, q) - mean[q]);
      }
    }
  }
  long double scale = 0.0L;
  for (long double& value : reference) {
    value /= static_cast<long double>(n);
    scale = std::max(scale, std::fabs(value));
  }

  const Matrix streamed = StreamCovariance(data, 1000, 1);
  long double worst = 0.0L;
  for (size_t p = 0; p < m; ++p) {
    for (size_t q = 0; q < m; ++q) {
      worst = std::max(worst, std::fabs(streamed(p, q) - reference[p * m + q]));
    }
  }
  // Relative to the largest covariance entry (~1). A two-pass double
  // computation lands near 1e-15 here, and so does the shifted merge. A
  // merge that keeps µ_a as one double at the offset's scale loses ~1e-11
  // (its rounding, ~1e-10, enters every δ) and a raw-moment shortcut far
  // more; 1e-13 fails both with a wide margin.
  EXPECT_LT(static_cast<double>(worst / scale), 1e-13);
}

TEST(StreamingMomentsTest, UnevenChunkSequenceStillBitwise) {
  stats::Rng rng(11);
  const Matrix data = rng.GaussianMatrix(1000, 6);
  StreamingMoments moments(6);
  // Deliberately irregular chunking, including empty chunks.
  const std::vector<size_t> spans = {1, 0, 499, 3, 497};
  size_t row = 0;
  for (size_t span : spans) {
    moments.Accumulate(data.row_data(row), span);
    row += span;
  }
  ASSERT_EQ(row, data.rows());
  EXPECT_EQ(linalg::MaxAbsDifference(moments.FinalizeCovariance(),
                                     SampleCovariance(data)),
            0.0);
}

TEST(StreamingMomentsTest, DdofOneMatchesUnbiasedEstimator) {
  stats::Rng rng(13);
  const Matrix data = rng.GaussianMatrix(257, 5);
  EXPECT_EQ(linalg::MaxAbsDifference(StreamCovariance(data, 32, 1, /*ddof=*/1),
                                     SampleCovariance(data, /*ddof=*/1)),
            0.0);
}

TEST(StreamingMomentsTest, MultiBlockStreamMatchesInMemory) {
  // Several staging-block flushes plus a ragged tail.
  stats::Rng rng(17);
  const Matrix data =
      rng.GaussianMatrix(2 * linalg::kernels::kGramChunkRows + 123, 4);
  EXPECT_EQ(linalg::MaxAbsDifference(StreamCovariance(data, 777, 4),
                                     SampleCovariance(data)),
            0.0);
}

TEST(StreamingMomentsTest, ColumnarFormIsBitwiseTheRowMajorForm) {
  // The columnar entry points (fed by mmap'd BlockColumn slices in
  // production) must produce bitwise-identical means and covariance to
  // the row-major ones — including when the two forms are interleaved
  // mid-stream and when spans straddle the staging block.
  stats::Rng rng(35);
  const size_t n = 3 * linalg::kernels::kGramChunkRows / 2 + 37;
  const size_t m = 5;
  const Matrix data = rng.GaussianMatrix(n, m);

  const Matrix expected = [&] {
    StreamingMoments moments(m);
    moments.Accumulate(data, n);
    return moments.FinalizeCovariance();
  }();

  // Columnar spans of uneven sizes over a transposed copy of the data.
  Matrix transposed(m, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) transposed.row_data(j)[i] = data(i, j);
  }
  auto columns_at = [&](size_t row) {
    std::vector<const double*> columns(m);
    for (size_t j = 0; j < m; ++j) columns[j] = transposed.row_data(j) + row;
    return columns;
  };

  StreamingMoments columnar(m);
  size_t row = 0;
  size_t span = 1;
  while (row < n) {
    const size_t take = std::min(span, n - row);
    if (span % 3 == 0) {  // Interleave the row-major form mid-stream.
      columnar.Accumulate(data.row_data(row), take);
    } else {
      columnar.AccumulateColumns(columns_at(row).data(), take);
    }
    row += take;
    span = span * 2 + 1;
  }
  EXPECT_EQ(columnar.means(), ColumnMeans(data));
  EXPECT_TRUE(columnar.FinalizeCovariance() == expected);
}

/// Columnar staging runs register-transposed tiles of the SIMD width
/// with scalar loops for the ragged rest, so it is checked at every
/// width class: below one vector, exact multiples, one past, and wide.
/// Spans start and end mid-tile (and straddle the staging block), and
/// the large-offset variant uses LargeOffsetsKeepFullPrecision's data.
/// Means and covariance must be memcmp-equal to the row-major form.
class ColumnarStagingTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(ColumnarStagingTest, IsBitwiseTheRowMajorForm) {
  const size_t m = std::get<0>(GetParam());
  const bool large_offsets = std::get<1>(GetParam());
  stats::Rng rng(41 + m);
  const size_t n = 2 * linalg::kernels::kGramChunkRows + 1234;
  Matrix data = rng.GaussianMatrix(n, m);
  if (large_offsets) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < m; ++j) {
        data(i, j) += 1e6 * (1.0 + 0.25 * static_cast<double>(j));
      }
    }
  }
  StreamingMoments row_major(m);
  row_major.Accumulate(data, n);
  const linalg::Vector expected_means = row_major.means();
  const Matrix expected = row_major.FinalizeCovariance();

  Matrix transposed(m, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) transposed.row_data(j)[i] = data(i, j);
  }
  auto columns_at = [&](size_t row) {
    std::vector<const double*> columns(m);
    for (size_t j = 0; j < m; ++j) columns[j] = transposed.row_data(j) + row;
    return columns;
  };
  // Odd spans: every span boundary but the last falls mid-tile, and
  // 4093 crosses a staging-block flush. Whole blocks: the production
  // shape (one BlockColumn block per call).
  const std::vector<std::vector<size_t>> patterns = {
      {5, 11, 1, 4093, 37, 2999, 6}, {linalg::kernels::kGramChunkRows}};
  for (const std::vector<size_t>& spans : patterns) {
    StreamingMoments columnar(m);
    size_t row = 0;
    for (size_t k = 0; row < n; ++k) {
      const size_t take = std::min(spans[k % spans.size()], n - row);
      columnar.AccumulateColumns(columns_at(row).data(), take);
      row += take;
    }
    const linalg::Vector means = columnar.means();
    const Matrix covariance = columnar.FinalizeCovariance();
    EXPECT_EQ(std::memcmp(means.data(), expected_means.data(),
                          m * sizeof(double)),
              0)
        << "means, m=" << m << " spans " << spans.size();
    EXPECT_EQ(std::memcmp(covariance.data(), expected.data(),
                          m * m * sizeof(double)),
              0)
        << "covariance, m=" << m << " spans " << spans.size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, ColumnarStagingTest,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 3, 7, 8, 9, 15, 16, 17,
                                                 24, 40, 64, 65, 100),
                       ::testing::Bool()));

TEST(StreamingMomentsTest, CountsRecords) {
  stats::Rng rng(19);
  const Matrix data = rng.GaussianMatrix(42, 3);
  StreamingMoments moments(3);
  moments.Accumulate(data, 42);
  EXPECT_EQ(moments.num_records(), 42u);
  EXPECT_EQ(moments.num_attributes(), 3u);
}

}  // namespace
}  // namespace stats
}  // namespace randrecon
