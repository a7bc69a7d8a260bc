// ColumnStoreRecordSource / ColumnStoreChunkSink / source-factory tests,
// including the ISSUE 4 acceptance sweep: streaming SF and PCA-DR
// attacks over a memory-mapped column store must produce BITWISE
// identical covariance and reconstruction output to the CsvRecordSource
// path on round-tripped data, for chunk sizes {1, 7, 64, n} x thread
// counts {1, 4}.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "data/column_store.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "linalg/matrix_util.h"
#include "perturb/schemes.h"
#include "pipeline/chunk_sink.h"
#include "pipeline/record_source.h"
#include "pipeline/source_factory.h"
#include "pipeline/streaming_attack.h"
#include "stats/rng.h"
#include "stats/streaming_moments.h"

namespace randrecon {
namespace pipeline {
namespace {

using linalg::Matrix;

class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_("column_store_source_test_" + name) {}
  ~ScratchFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

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

/// A disguised dataset that has passed through CSV text once, so the CSV
/// file and the store built from it hold identical doubles.
class ColumnStoreSourceTest : public ::testing::Test {
 protected:
  static constexpr size_t kRecords = 600;
  static constexpr size_t kAttributes = 6;
  static constexpr double kSigma = 0.5;

  void SetUp() override {
    stats::Rng rng(99);
    data::SyntheticDatasetSpec spec;
    spec.eigenvalues = data::TwoLevelSpectrum(kAttributes, 2, 6.0, 0.2);
    auto generated = data::GenerateSpectrumDataset(spec, kRecords, &rng);
    ASSERT_TRUE(generated.ok());
    auto scheme =
        perturb::IndependentNoiseScheme::Gaussian(kAttributes, kSigma);
    auto disguised = scheme.Disguise(generated.value().dataset, &rng);
    ASSERT_TRUE(disguised.ok());
    ASSERT_TRUE(data::WriteCsv(disguised.value(), csv_.path()).ok());

    // Round-trip: the store is built from the CSV's parsed values.
    auto parsed = data::ReadCsv(csv_.path());
    ASSERT_TRUE(parsed.ok());
    round_tripped_ = parsed.value().records();
    ASSERT_TRUE(
        data::WriteColumnStore(parsed.value(), store_.path()).ok());
  }

  ScratchFile csv_{"disguised.csv"};
  ScratchFile store_{"disguised.rrcs"};
  Matrix round_tripped_;
};

TEST_F(ColumnStoreSourceTest, StreamsTheRoundTrippedRecordsBitwise) {
  auto source = ColumnStoreRecordSource::Open(store_.path());
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ColumnStoreRecordSource store_source = std::move(source).value();
  EXPECT_EQ(store_source.num_records(), kRecords);
  EXPECT_TRUE(Drain(&store_source, 64) == round_tripped_);
  ASSERT_TRUE(store_source.Reset().ok());
  EXPECT_TRUE(Drain(&store_source, 10) == round_tripped_);
}

TEST_F(ColumnStoreSourceTest, ChunkSizeDoesNotChangeTheStream) {
  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{64}, kRecords}) {
    auto source = ColumnStoreRecordSource::Open(store_.path());
    ASSERT_TRUE(source.ok());
    ColumnStoreRecordSource store_source = std::move(source).value();
    EXPECT_TRUE(Drain(&store_source, chunk) == round_tripped_)
        << "chunk=" << chunk;
  }
}

// The acceptance sweep: covariance and reconstruction from the mmap'd
// store must match the CSV path BITWISE for every chunk size and thread
// count (and therefore match each other across the whole sweep, since
// the CSV path is already chunk/thread invariant).
TEST_F(ColumnStoreSourceTest, AttacksOverStoreMatchCsvBitwise) {
  const perturb::NoiseModel noise =
      perturb::NoiseModel::IndependentGaussian(kAttributes, kSigma);

  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{64}, kRecords}) {
    for (const int threads : {1, 4}) {
      // Covariance: streamed moments over both sources, bitwise equal.
      Matrix covariance[2];
      for (int which = 0; which < 2; ++which) {
        auto opened = OpenRecordSource(which == 0 ? csv_.path()
                                                  : store_.path());
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        stats::StreamingMoments moments(kAttributes);
        Matrix buffer(chunk, kAttributes);
        for (;;) {
          auto rows = opened.value().source->NextChunk(&buffer);
          ASSERT_TRUE(rows.ok());
          if (rows.value() == 0) break;
          moments.Accumulate(buffer, rows.value());
        }
        covariance[which] = moments.FinalizeCovariance();
      }
      EXPECT_TRUE(covariance[0] == covariance[1])
          << "covariance diverged at chunk=" << chunk
          << " threads=" << threads;

      // Full attacks: reconstruction streams, bitwise equal.
      for (const StreamingAttack attack :
           {StreamingAttack::kSpectralFiltering, StreamingAttack::kPcaDr}) {
        StreamingAttackOptions options;
        options.attack = attack;
        options.chunk_rows = chunk;
        options.parallel.num_threads = threads;

        Matrix reconstruction[2];
        StreamingAttackReport reports[2];
        for (int which = 0; which < 2; ++which) {
          auto opened = OpenRecordSource(which == 0 ? csv_.path()
                                                    : store_.path());
          ASSERT_TRUE(opened.ok());
          CollectChunkSink sink(kAttributes);
          auto report = StreamingAttackPipeline(options).Run(
              opened.value().source.get(), noise, &sink);
          ASSERT_TRUE(report.ok()) << report.status().ToString();
          reconstruction[which] = sink.ToMatrix();
          reports[which] = report.value();
        }
        EXPECT_TRUE(reconstruction[0] == reconstruction[1])
            << "reconstruction diverged: attack="
            << (attack == StreamingAttack::kPcaDr ? "pca" : "sf")
            << " chunk=" << chunk << " threads=" << threads << " max diff "
            << linalg::MaxAbsDifference(reconstruction[0], reconstruction[1]);
        EXPECT_EQ(reports[0].num_components, reports[1].num_components);
        EXPECT_EQ(reports[0].eigenvalues, reports[1].eigenvalues);
        EXPECT_EQ(reports[0].mean, reports[1].mean);
        EXPECT_EQ(reports[0].rmse_vs_disguised, reports[1].rmse_vs_disguised);
      }
    }
  }
}

TEST_F(ColumnStoreSourceTest, ColumnStoreChunkSinkRoundTripsTheAttackOutput) {
  ScratchFile out{"recon.rrcs"};
  const perturb::NoiseModel noise =
      perturb::NoiseModel::IndependentGaussian(kAttributes, kSigma);
  StreamingAttackOptions options;
  options.attack = StreamingAttack::kSpectralFiltering;

  auto collect_opened = OpenRecordSource(store_.path());
  ASSERT_TRUE(collect_opened.ok());
  CollectChunkSink collect(kAttributes);
  ASSERT_TRUE(StreamingAttackPipeline(options)
                  .Run(collect_opened.value().source.get(), noise, &collect)
                  .ok());

  auto store_opened = OpenRecordSource(store_.path());
  ASSERT_TRUE(store_opened.ok());
  auto sink = ColumnStoreChunkSink::Create(
      out.path(), store_opened.value().attribute_names);
  ASSERT_TRUE(sink.ok());
  ColumnStoreChunkSink store_sink = std::move(sink).value();
  ASSERT_TRUE(StreamingAttackPipeline(options)
                  .Run(store_opened.value().source.get(), noise, &store_sink)
                  .ok());
  ASSERT_TRUE(store_sink.Close().ok());

  // The persisted reconstruction equals the collected one bitwise.
  auto read_back = data::ReadColumnStoreDataset(out.path());
  ASSERT_TRUE(read_back.ok()) << read_back.status().ToString();
  EXPECT_TRUE(read_back.value().records() == collect.ToMatrix());
}

TEST_F(ColumnStoreSourceTest, FactorySniffsContentAndPicksSinkByExtension) {
  auto csv_opened = OpenRecordSource(csv_.path());
  auto store_opened = OpenRecordSource(store_.path());
  ASSERT_TRUE(csv_opened.ok());
  ASSERT_TRUE(store_opened.ok());
  EXPECT_EQ(csv_opened.value().format, data::RecordFileFormat::kCsv);
  EXPECT_EQ(store_opened.value().format,
            data::RecordFileFormat::kColumnStore);
  EXPECT_EQ(csv_opened.value().attribute_names,
            store_opened.value().attribute_names);
  EXPECT_EQ(store_opened.value().num_records, kRecords);
  EXPECT_TRUE(Drain(csv_opened.value().source.get(), 64) ==
              Drain(store_opened.value().source.get(), 64));

  ScratchFile csv_out{"sink.csv"};
  ScratchFile store_out{"sink.rrcs"};
  const std::vector<std::string> names = csv_opened.value().attribute_names;
  auto csv_sink = CreateRecordSink(csv_out.path(), names);
  auto store_sink = CreateRecordSink(store_out.path(), names);
  ASSERT_TRUE(csv_sink.ok());
  ASSERT_TRUE(store_sink.ok());
  Matrix chunk(4, kAttributes);
  ASSERT_TRUE(csv_sink.value()->Consume(0, chunk, 4).ok());
  ASSERT_TRUE(store_sink.value()->Consume(0, chunk, 4).ok());
  ASSERT_TRUE(csv_sink.value()->Close().ok());
  ASSERT_TRUE(store_sink.value()->Close().ok());
  auto csv_format = data::DetectRecordFileFormat(csv_out.path());
  auto store_format = data::DetectRecordFileFormat(store_out.path());
  ASSERT_TRUE(csv_format.ok());
  ASSERT_TRUE(store_format.ok());
  EXPECT_EQ(csv_format.value(), data::RecordFileFormat::kCsv);
  EXPECT_EQ(store_format.value(), data::RecordFileFormat::kColumnStore);
}

TEST_F(ColumnStoreSourceTest, VerifyStreamsComparesRecordsNotVacuously) {
  // The CSV and the store hold the same round-tripped doubles.
  EXPECT_TRUE(VerifyStreamsBitwiseEqual(csv_.path(), store_.path()).ok());
  // chunk_rows == 0 must be an error, not a 0-record "equal" verdict.
  const Status status =
      VerifyStreamsBitwiseEqual(csv_.path(), store_.path(), /*chunk_rows=*/0);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST(ColumnStoreRecordSourceTest, OpenFailsCleanlyOnCsvInput) {
  ScratchFile csv{"not_a_store.csv"};
  std::ofstream file(csv.path());
  file << "a,b\n1,2\n";
  file.close();
  auto source = ColumnStoreRecordSource::Open(csv.path());
  EXPECT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pipeline
}  // namespace randrecon
