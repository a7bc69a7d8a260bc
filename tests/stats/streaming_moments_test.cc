// The determinism contract of the streaming accumulator: for ANY chunk
// size and ANY thread count, the streamed means/covariance are BITWISE
// identical to the in-memory stats::ColumnMeans / stats::SampleCovariance
// over the same records (exact 0.0 difference, not a tolerance) — plus
// the accuracy of the single-sweep block merge on badly offset data.

#include "stats/streaming_moments.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
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

/// Records stored column by column, as a column store maps them: row j
/// of the result is attribute j.
Matrix ColumnarRecords(size_t n, size_t m, bool large_offsets, uint64_t seed) {
  stats::Rng rng(seed);
  Matrix columns = rng.GaussianMatrix(m, n);
  if (large_offsets) {
    for (size_t j = 0; j < m; ++j) {
      double* column = columns.row_data(j);
      for (size_t i = 0; i < n; ++i) {
        column[i] += 1e6 * (1.0 + 0.25 * static_cast<double>(j));
      }
    }
  }
  return columns;
}

/// Feeds records [row, row + rows) of `columnar` to `columnar_moments`
/// through AccumulateColumns and to `row_major` through Accumulate.
void FeedBoth(const Matrix& columnar, size_t row, size_t rows,
              StreamingMoments* columnar_moments, StreamingMoments* row_major) {
  const size_t m = columnar.rows();
  std::vector<const double*> columns(m);
  std::vector<double> gathered(rows * m);
  for (size_t j = 0; j < m; ++j) {
    columns[j] = columnar.row_data(j) + row;
    for (size_t i = 0; i < rows; ++i) gathered[i * m + j] = columns[j][i];
  }
  columnar_moments->AccumulateColumns(columns.data(), rows);
  if (row_major != nullptr) row_major->Accumulate(gathered.data(), rows);
}

/// Deferred block Grams: on more than one thread, whole columnar blocks
/// are folded on the caller and their partials reduced on the pool, a
/// window of 2 x threads blocks at a time, then merged in block order.
/// Means and covariance must stay memcmp-equal to the row-major form at
/// every width class of the staging tiles and of the Gram kernel (m = 80
/// takes the packed driver), with and without large offsets.
class DeferredPartialsTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(DeferredPartialsTest, IsBitwiseTheRowMajorForm) {
  const size_t m = std::get<0>(GetParam());
  const bool large_offsets = std::get<1>(GetParam());
  constexpr size_t kBlock = linalg::kernels::kGramChunkRows;
  // 27 whole blocks and a ragged tail. Block 0 sets the shift; at 4
  // threads blocks 1–8 and 9–16 fill two windows back to back, 17–18
  // start a third, and block 19 arrives as a row-major span and a
  // ragged columnar span in the middle of it (at 2 threads too). Blocks
  // 20–26 fill the last window, which the tail's flush merges.
  constexpr size_t kInterleavedBlock = 19;
  const size_t n = 27 * kBlock + 1234;
  const Matrix columnar = ColumnarRecords(n, m, large_offsets, 53 + m);

  for (const int threads : {1, 2, 4}) {
    ParallelOptions options;
    options.num_threads = threads;
    ParallelOptions serial;
    serial.num_threads = 1;
    StreamingMoments moments(m, options);
    StreamingMoments row_major(m, serial);
    size_t row = 0;
    for (size_t block = 0; row < n; ++block) {
      if (block == kInterleavedBlock) {
        std::vector<double> gathered(1000 * m);
        for (size_t i = 0; i < 1000; ++i) {
          for (size_t j = 0; j < m; ++j) {
            gathered[i * m + j] = columnar(j, row + i);
          }
        }
        moments.Accumulate(gathered.data(), 1000);
        row_major.Accumulate(gathered.data(), 1000);
        FeedBoth(columnar, row + 1000, kBlock - 1000, &moments, &row_major);
        row += kBlock;
        continue;
      }
      const size_t rows = std::min(kBlock, n - row);
      FeedBoth(columnar, row, rows, &moments, &row_major);
      row += rows;
      if (block == 2 * static_cast<size_t>(threads)) {
        // The first window has just gone to the pool.
        const linalg::Vector in_flight = moments.means();
        const linalg::Vector expected = row_major.means();
        EXPECT_EQ(std::memcmp(in_flight.data(), expected.data(),
                              m * sizeof(double)),
                  0)
            << "means with a window in flight, threads=" << threads;
      }
    }
    ASSERT_EQ(moments.num_records(), n);
    const linalg::Vector means = moments.means();
    const linalg::Vector expected_means = row_major.means();
    const Matrix covariance = moments.FinalizeCovariance();
    const Matrix expected = row_major.FinalizeCovariance();
    EXPECT_EQ(std::memcmp(means.data(), expected_means.data(),
                          m * sizeof(double)),
              0)
        << "means, threads=" << threads;
    EXPECT_EQ(std::memcmp(covariance.data(), expected.data(),
                          m * m * sizeof(double)),
              0)
        << "covariance, threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, DeferredPartialsTest,
    ::testing::Combine(::testing::Values<size_t>(3, 8, 16, 17, 64, 80),
                       ::testing::Bool()));

TEST(StreamingMomentsTest, DestructionJoinsTheWindowInFlight) {
  // The wave reads the caller's column data and writes the accumulator's
  // buffers. Destroying the accumulator right after a window launches
  // must join it, so the data may be freed as soon as the destructor
  // returns (sanitizer builds flag any access after that).
  const size_t m = 16;
  constexpr size_t kBlock = linalg::kernels::kGramChunkRows;
  ParallelOptions options;
  options.num_threads = 4;
  const size_t blocks = 1 + 8;  // The first block, then one full window.
  for (int round = 0; round < 4; ++round) {
    auto columnar = std::make_unique<Matrix>(
        ColumnarRecords(blocks * kBlock, m, /*large_offsets=*/false, 61));
    {
      StreamingMoments moments(m, options);
      std::vector<const double*> columns(m);
      for (size_t block = 0; block < blocks; ++block) {
        for (size_t j = 0; j < m; ++j) {
          columns[j] = columnar->row_data(j) + block * kBlock;
        }
        moments.AccumulateColumns(columns.data(), kBlock);
      }
      EXPECT_EQ(moments.num_records(), blocks * kBlock);
    }
    columnar.reset();
  }
}

TEST(StreamingMomentsTest, MovesWithAWindowInFlightKeepTheBits) {
  const size_t m = 17;
  constexpr size_t kBlock = linalg::kernels::kGramChunkRows;
  const size_t n = 20 * kBlock + 99;
  const Matrix columnar = ColumnarRecords(n, m, /*large_offsets=*/true, 67);
  ParallelOptions options;
  options.num_threads = 4;
  StreamingMoments row_major(m);
  StreamingMoments moments(m, options);
  size_t row = 0;
  auto feed = [&](StreamingMoments* target, size_t blocks) {
    for (size_t b = 0; b < blocks && row < n; ++b) {
      const size_t rows = std::min(kBlock, n - row);
      FeedBoth(columnar, row, rows, target, &row_major);
      row += rows;
    }
  };
  feed(&moments, 9);  // A window in flight.
  StreamingMoments moved(std::move(moments));
  feed(&moved, 8);  // Launches the next window, merging the moved one.
  // A target with its own window in flight, replaced mid-wave.
  StreamingMoments target(m, options);
  std::vector<const double*> columns(m);
  for (size_t block = 0; block < 9; ++block) {
    for (size_t j = 0; j < m; ++j) {
      columns[j] = columnar.row_data(j) + block * kBlock;
    }
    target.AccumulateColumns(columns.data(), kBlock);
  }
  target = std::move(moved);
  feed(&target, 100);
  ASSERT_EQ(target.num_records(), n);
  const linalg::Vector means = target.means();
  const linalg::Vector expected_means = row_major.means();
  const Matrix covariance = target.FinalizeCovariance();
  const Matrix expected = row_major.FinalizeCovariance();
  EXPECT_EQ(
      std::memcmp(means.data(), expected_means.data(), m * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(covariance.data(), expected.data(),
                        m * m * sizeof(double)),
            0);
}

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
