// Contract tests for the RecordSource adapters: chunking, rewind
// reproducibility, and chunk-size invariance of every stream.

#include "pipeline/record_source.h"

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "../perturb/scheme_test_peer.h"
#include "data/csv.h"
#include "linalg/matrix_util.h"
#include "stats/rng.h"

namespace randrecon {
namespace pipeline {
namespace {

using linalg::Matrix;

/// Drains `source` with `chunk_rows`-record reads into one matrix.
Matrix Drain(RecordSource* source, size_t chunk_rows) {
  const size_t m = source->num_attributes();
  Matrix buffer(chunk_rows, m);
  std::vector<double> values;
  size_t n = 0;
  for (;;) {
    auto rows = source->NextChunk(&buffer);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (!rows.ok() || rows.value() == 0) break;
    values.insert(values.end(), buffer.data(),
                  buffer.data() + rows.value() * m);
    n += rows.value();
  }
  return Matrix::FromRowMajor(n, m, std::move(values));
}

TEST(MatrixRecordSourceTest, ChunksAndRewinds) {
  stats::Rng rng(1);
  const Matrix data = rng.GaussianMatrix(103, 5);
  MatrixRecordSource source(data);
  EXPECT_EQ(source.num_attributes(), 5u);
  const Matrix first_pass = Drain(&source, 10);
  EXPECT_EQ(linalg::MaxAbsDifference(first_pass, data), 0.0);
  ASSERT_TRUE(source.Reset().ok());
  const Matrix second_pass = Drain(&source, 64);
  EXPECT_EQ(linalg::MaxAbsDifference(second_pass, data), 0.0);
}

TEST(MatrixRecordSourceTest, BorrowedMatrixIsNotCopied) {
  const Matrix data = Matrix{{1.0, 2.0}, {3.0, 4.0}};
  MatrixRecordSource source(&data);
  EXPECT_EQ(linalg::MaxAbsDifference(Drain(&source, 1), data), 0.0);
}

TEST(CsvRecordSourceTest, StreamsWhatFromCsvStringParses) {
  const std::string csv = "a,b\n1.5,2\n3,4\n5,6\n";
  auto source = CsvRecordSource::FromString(csv);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  CsvRecordSource s = std::move(source).value();
  const Matrix streamed = Drain(&s, 2);
  const Matrix parsed = data::FromCsvString(csv).value().records();
  EXPECT_EQ(linalg::MaxAbsDifference(streamed, parsed), 0.0);
  ASSERT_TRUE(s.Reset().ok());
  EXPECT_EQ(linalg::MaxAbsDifference(Drain(&s, 64), parsed), 0.0);
}

TEST(MvnRecordSourceTest, ResetReplaysIdenticalRecords) {
  const Matrix covariance = Matrix{{2.0, 0.5}, {0.5, 1.0}};
  auto source =
      MvnRecordSource::Create({1.0, -1.0}, covariance, 257, /*seed=*/42);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  MvnRecordSource s = std::move(source).value();
  const Matrix first_pass = Drain(&s, 64);
  ASSERT_EQ(first_pass.rows(), 257u);
  ASSERT_TRUE(s.Reset().ok());
  const Matrix second_pass = Drain(&s, 64);
  EXPECT_EQ(linalg::MaxAbsDifference(first_pass, second_pass), 0.0);
}

TEST(MvnRecordSourceTest, StreamIsChunkSizeInvariant) {
  const Matrix covariance = Matrix::Identity(3);
  auto source =
      MvnRecordSource::Create({0.0, 0.0, 0.0}, covariance, 100, /*seed=*/7);
  ASSERT_TRUE(source.ok());
  MvnRecordSource s = std::move(source).value();
  const Matrix by_fives = Drain(&s, 5);
  ASSERT_TRUE(s.Reset().ok());
  const Matrix by_sixty_four = Drain(&s, 64);
  EXPECT_EQ(linalg::MaxAbsDifference(by_fives, by_sixty_four), 0.0);
}

TEST(PerturbingRecordSourceTest, AddsRewindableNoise) {
  stats::Rng rng(3);
  const Matrix data = rng.GaussianMatrix(80, 4);
  const auto scheme = perturb::IndependentNoiseScheme::Gaussian(4, 0.5);
  PerturbingRecordSource source(std::make_unique<MatrixRecordSource>(&data),
                                &scheme, /*seed=*/11);
  const Matrix first_pass = Drain(&source, 17);
  ASSERT_EQ(first_pass.rows(), 80u);
  // Noise actually moved the records...
  EXPECT_GT(linalg::MaxAbsDifference(first_pass, data), 0.0);
  // ...and the disguised stream replays identically after a rewind.
  ASSERT_TRUE(source.Reset().ok());
  const Matrix second_pass = Drain(&source, 33);
  EXPECT_EQ(linalg::MaxAbsDifference(first_pass, second_pass), 0.0);
}

TEST(PerturbingRecordSourceTest, DisguisedStreamIsChunkSizeInvariant) {
  stats::Rng rng(5);
  const Matrix data = rng.GaussianMatrix(60, 3);
  const auto scheme = perturb::IndependentNoiseScheme::Gaussian(3, 1.0);
  PerturbingRecordSource source(std::make_unique<MatrixRecordSource>(&data),
                                &scheme, /*seed=*/13);
  const Matrix one_by_one = Drain(&source, 1);
  ASSERT_TRUE(source.Reset().ok());
  const Matrix all_at_once = Drain(&source, 60);
  EXPECT_EQ(linalg::MaxAbsDifference(one_by_one, all_at_once), 0.0);
}

/// Drains with an explicit worker budget on the batch sources.
template <typename Source>
Matrix DrainWithThreads(Source* source, size_t chunk_rows, int threads) {
  ParallelOptions options;
  options.num_threads = threads;
  source->set_parallel_options(options);
  return Drain(source, chunk_rows);
}

TEST(MvnRecordSourceTest, BatchModeIsChunkAndThreadInvariant) {
  const Matrix covariance = Matrix{{2.0, 0.5, 0.1},
                                   {0.5, 1.0, 0.0},
                                   {0.1, 0.0, 3.0}};
  const size_t n = 1000;  // straddles several generation blocks
  auto make = [&] {
    auto source = MvnRecordSource::Create({0.5, 0.0, -1.0}, covariance, n,
                                          /*seed=*/42);
    EXPECT_TRUE(source.ok()) << source.status().ToString();
    return std::move(source).value();
  };
  MvnRecordSource reference_source = make();
  const Matrix reference = DrainWithThreads(&reference_source, 64, 1);
  ASSERT_EQ(reference.rows(), n);
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, n}) {
    for (int threads : {1, 4}) {
      MvnRecordSource source = make();
      const Matrix streamed = DrainWithThreads(&source, chunk, threads);
      EXPECT_EQ(linalg::MaxAbsDifference(streamed, reference), 0.0)
          << "chunk " << chunk << " threads " << threads;
    }
  }
}

TEST(MvnRecordSourceTest, BatchModeResetReplaysIdentically) {
  auto source = MvnRecordSource::Create({0.0, 0.0}, Matrix::Identity(2), 517,
                                        /*seed=*/9);
  ASSERT_TRUE(source.ok());
  MvnRecordSource s = std::move(source).value();
  const Matrix first = Drain(&s, 33);
  ASSERT_TRUE(s.Reset().ok());
  const Matrix second = Drain(&s, 129);
  EXPECT_EQ(linalg::MaxAbsDifference(first, second), 0.0);
}

TEST(PerturbingRecordSourceTest, BatchNoiseIsChunkAndThreadInvariant) {
  stats::Rng rng(5);
  const Matrix data = rng.GaussianMatrix(700, 3);
  const perturb::IndependentNoiseScheme schemes[] = {
      perturb::IndependentNoiseScheme::Gaussian(3, 1.0),
      perturb::IndependentNoiseSchemeTestPeer::Laplace(3, 0.8)};
  for (const auto& scheme : schemes) {
    auto make = [&] {
      return PerturbingRecordSource(
          std::make_unique<MatrixRecordSource>(&data), &scheme, /*seed=*/13);
    };
    PerturbingRecordSource reference_source = make();
    const Matrix reference = DrainWithThreads(&reference_source, 64, 1);
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, size_t{700}}) {
      for (int threads : {1, 4}) {
        PerturbingRecordSource source = make();
        const Matrix streamed = DrainWithThreads(&source, chunk, threads);
        EXPECT_EQ(linalg::MaxAbsDifference(streamed, reference), 0.0)
            << scheme.noise_model().Marginal(0).ToString() << " chunk "
            << chunk << " threads " << threads;
      }
    }
    // And the noise actually perturbed the records.
    EXPECT_GT(linalg::MaxAbsDifference(reference, data), 0.0);
  }
}

TEST(PerturbingRecordSourceTest, BatchUniformNoiseInvariance) {
  stats::Rng rng(6);
  const Matrix data = rng.GaussianMatrix(300, 2);
  const auto scheme = perturb::IndependentNoiseScheme::Uniform(2, 2.0);
  PerturbingRecordSource a(std::make_unique<MatrixRecordSource>(&data),
                           &scheme, /*seed=*/3);
  const Matrix one_by_one = Drain(&a, 1);
  PerturbingRecordSource b(std::make_unique<MatrixRecordSource>(&data),
                           &scheme, /*seed=*/3);
  const Matrix all_at_once = Drain(&b, 300);
  EXPECT_EQ(linalg::MaxAbsDifference(one_by_one, all_at_once), 0.0);
}

TEST(PerturbingRecordSourceTest, BatchCorrelatedNoiseInvariance) {
  stats::Rng rng(8);
  const Matrix data = rng.GaussianMatrix(600, 2);
  const Matrix noise_cov = Matrix{{1.0, 0.6}, {0.6, 1.0}};
  auto scheme = perturb::CorrelatedGaussianScheme::Create(noise_cov);
  ASSERT_TRUE(scheme.ok());
  auto make = [&] {
    return PerturbingRecordSource(std::make_unique<MatrixRecordSource>(&data),
                                  &scheme.value(), /*seed=*/21);
  };
  PerturbingRecordSource a = make();
  const Matrix by_17 = Drain(&a, 17);
  PerturbingRecordSource b = make();
  const Matrix by_256 = Drain(&b, 256);
  EXPECT_EQ(linalg::MaxAbsDifference(by_17, by_256), 0.0);
}

TEST(PerturbingRecordSourceTest, MvnPlusNoiseEndToEndInvariance) {
  // The full synthetic attack input — MVN population + independent noise,
  // both on the counter substrate — re-chunks bitwise identically.
  const Matrix covariance = Matrix{{2.0, 0.4}, {0.4, 1.0}};
  const auto scheme = perturb::IndependentNoiseScheme::Gaussian(2, 0.5);
  auto make = [&] {
    auto inner = MvnRecordSource::Create({0.0, 0.0}, covariance, 555,
                                         /*seed=*/31);
    EXPECT_TRUE(inner.ok());
    return PerturbingRecordSource(
        std::make_unique<MvnRecordSource>(std::move(inner).value()), &scheme,
        /*seed=*/32);
  };
  PerturbingRecordSource a = make();
  const Matrix ref = Drain(&a, 64);
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{555}}) {
    PerturbingRecordSource s = make();
    EXPECT_EQ(linalg::MaxAbsDifference(Drain(&s, chunk), ref), 0.0)
        << "chunk " << chunk;
  }
}

/// FNV-1a (64-bit) over the raw bytes of `records`.
uint64_t Fnv1a(const Matrix& records) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(records.data());
  uint64_t hash = 0xCBF29CE484222325ull;
  for (size_t i = 0; i < records.size() * sizeof(double); ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001B3ull;
  }
  return hash;
}

TEST(PerturbingRecordSourceTest, StreamedGeneratorsArePinned) {
  // Pins the bytes of the streamed MVN -> Gaussian-noise pipeline (the
  // generators behind every bulk workload). A diagonal covariance keeps
  // the factor product exact, so the pin holds on every build.
  const size_t n = 3 * stats::kBatchBlockRows + 5;
  const Matrix covariance = Matrix::Diagonal({4.0, 1.0, 0.25});
  auto inner = MvnRecordSource::Create({1.0, -2.0, 0.5}, covariance, n,
                                       /*seed=*/7);
  ASSERT_TRUE(inner.ok()) << inner.status().ToString();
  const auto scheme = perturb::IndependentNoiseScheme::Gaussian(3, 1.0);
  PerturbingRecordSource source(
      std::make_unique<MvnRecordSource>(std::move(inner).value()), &scheme,
      /*seed=*/11);
  const Matrix records = Drain(&source, 7);
  ASSERT_EQ(records.rows(), n);
  EXPECT_EQ(Fnv1a(records), 0x53DCDEC28EAD02BFull);
}

}  // namespace
}  // namespace pipeline
}  // namespace randrecon
