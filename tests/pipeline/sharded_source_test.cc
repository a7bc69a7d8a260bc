// ShardedRecordSource / ShardedChunkSink / job-per-shard tests,
// including the ISSUE 5 acceptance sweep: streaming SF and PCA-DR
// attacks over a manifest of N shards must produce BITWISE identical
// covariance, reconstruction and report to the single-file `.rrcs` path,
// for shard row counts {one block, misaligned, n} x threads {1, 4}.
// Also pins the columnar pass-1 fast path (both store-backed sources
// expose zero-copy block columns) against the row-major CSV path.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "data/column_store.h"
#include "data/csv.h"
#include "data/rolling_store.h"
#include "data/shard_store.h"
#include "data/synthetic.h"
#include "perturb/schemes.h"
#include "pipeline/chunk_sink.h"
#include "pipeline/record_source.h"
#include "pipeline/runner.h"
#include "pipeline/source_factory.h"
#include "pipeline/streaming_attack.h"
#include "stats/rng.h"
#include "stats/streaming_moments.h"

namespace randrecon {
namespace pipeline {
namespace {

using linalg::Matrix;

class ScratchShardedStore {
 public:
  explicit ScratchShardedStore(const std::string& name)
      : path_("sharded_source_test_" + name) {}
  ~ScratchShardedStore() { data::RemoveShardedStoreFiles(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_("sharded_source_test_" + name) {}
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

/// A disguised dataset round-tripped through CSV once, exported to a
/// single-file store AND to manifests with several shard geometries, so
/// every backend holds identical doubles. kBlockRows = 64 keeps multiple
/// blocks per shard at test sizes.
class ShardedSourceTest : public ::testing::Test {
 protected:
  static constexpr size_t kRecords = 600;
  static constexpr size_t kAttributes = 6;
  static constexpr size_t kBlockRows = 64;
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

    auto parsed = data::ReadCsv(csv_.path());
    ASSERT_TRUE(parsed.ok());
    round_tripped_ = parsed.value().records();

    data::ColumnStoreOptions store_options;
    store_options.block_rows = kBlockRows;
    ASSERT_TRUE(
        data::WriteColumnStore(parsed.value(), store_.path(), store_options)
            .ok());
    // Shard geometries of the acceptance sweep: exactly one block per
    // shard, shard rows misaligned with the block size, and one shard
    // holding everything.
    WriteManifest(parsed.value(), one_block_.path(), kBlockRows);
    WriteManifest(parsed.value(), misaligned_.path(), 97);
    WriteManifest(parsed.value(), single_.path(), kRecords);
  }

  static void WriteManifest(const data::Dataset& dataset,
                            const std::string& path, size_t shard_rows) {
    data::ShardedStoreOptions options;
    options.shard_rows = shard_rows;
    options.block_rows = kBlockRows;
    ASSERT_TRUE(data::WriteShardedStore(dataset, path, options).ok());
  }

  ScratchFile csv_{"disguised.csv"};
  ScratchFile store_{"disguised.rrcs"};
  ScratchShardedStore one_block_{"one_block.rrcm"};
  ScratchShardedStore misaligned_{"misaligned.rrcm"};
  ScratchShardedStore single_{"single.rrcm"};
  Matrix round_tripped_;
};

TEST_F(ShardedSourceTest, StreamsTheLogicalStreamBitwise) {
  for (const std::string* path :
       {&one_block_.path(), &misaligned_.path(), &single_.path()}) {
    auto source = ShardedRecordSource::Open(*path);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    ShardedRecordSource sharded = std::move(source).value();
    EXPECT_EQ(sharded.num_records(), kRecords);
    for (const size_t chunk : {size_t{1}, size_t{7}, size_t{64}, kRecords}) {
      ASSERT_TRUE(sharded.Reset().ok());
      EXPECT_TRUE(Drain(&sharded, chunk) == round_tripped_)
          << *path << " chunk=" << chunk;
    }
  }
}

TEST_F(ShardedSourceTest, FactorySniffsManifests) {
  auto opened = OpenRecordSource(misaligned_.path());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().format, data::RecordFileFormat::kShardManifest);
  EXPECT_EQ(opened.value().num_records, kRecords);
  EXPECT_EQ(opened.value().attribute_names.size(), kAttributes);
  EXPECT_TRUE(Drain(opened.value().source.get(), 64) == round_tripped_);

  EXPECT_TRUE(
      VerifyStreamsBitwiseEqual(csv_.path(), misaligned_.path()).ok());
  EXPECT_TRUE(
      VerifyStreamsBitwiseEqual(store_.path(), one_block_.path()).ok());
}

// The acceptance sweep: streaming SF and PCA-DR over every manifest
// geometry must match the single-file store path BITWISE — covariance,
// reconstruction stream, and report — for chunk sizes and thread counts.
TEST_F(ShardedSourceTest, AttacksOverManifestsMatchSingleFileBitwise) {
  const perturb::NoiseModel noise =
      perturb::NoiseModel::IndependentGaussian(kAttributes, kSigma);
  const std::vector<const std::string*> manifests = {
      &one_block_.path(), &misaligned_.path(), &single_.path()};

  for (const int threads : {1, 4}) {
    for (const size_t chunk : {size_t{64}, kRecords}) {
      for (const StreamingAttack attack :
           {StreamingAttack::kSpectralFiltering, StreamingAttack::kPcaDr}) {
        StreamingAttackOptions options;
        options.attack = attack;
        options.chunk_rows = chunk;
        options.parallel.num_threads = threads;

        auto run = [&](const std::string& path, Matrix* reconstruction,
                       StreamingAttackReport* report) {
          auto opened = OpenRecordSource(path);
          ASSERT_TRUE(opened.ok()) << opened.status().ToString();
          CollectChunkSink sink(kAttributes);
          auto result = StreamingAttackPipeline(options).Run(
              opened.value().source.get(), noise, &sink);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          *reconstruction = sink.ToMatrix();
          *report = result.value();
        };

        Matrix base_reconstruction;
        StreamingAttackReport base_report;
        run(store_.path(), &base_reconstruction, &base_report);
        for (const std::string* manifest : manifests) {
          Matrix reconstruction;
          StreamingAttackReport report;
          run(*manifest, &reconstruction, &report);
          EXPECT_TRUE(reconstruction == base_reconstruction)
              << *manifest << " chunk=" << chunk << " threads=" << threads;
          EXPECT_EQ(report.num_components, base_report.num_components);
          EXPECT_EQ(report.eigenvalues, base_report.eigenvalues);
          EXPECT_EQ(report.mean, base_report.mean);
          EXPECT_EQ(report.rmse_vs_disguised, base_report.rmse_vs_disguised);
        }
      }
    }
  }
}

// The columnar pass-1 fast path (used automatically by store-backed
// sources) must be bitwise identical to the row-major path the CSV
// source takes — covariance AND means.
TEST_F(ShardedSourceTest, ColumnarMomentsMatchRowMajorBitwise) {
  stats::StreamingMoments row_major(kAttributes);
  {
    auto opened = OpenRecordSource(csv_.path());
    ASSERT_TRUE(opened.ok());
    Matrix buffer(64, kAttributes);
    for (;;) {
      auto rows = opened.value().source->NextChunk(&buffer);
      ASSERT_TRUE(rows.ok());
      if (rows.value() == 0) break;
      row_major.Accumulate(buffer, rows.value());
    }
  }
  const Matrix expected_cov = row_major.FinalizeCovariance();

  for (const std::string* path : {&store_.path(), &misaligned_.path()}) {
    auto opened = OpenRecordSource(*path);
    ASSERT_TRUE(opened.ok());
    ColumnarBlockStream* columnar = opened.value().source->columnar_blocks();
    ASSERT_NE(columnar, nullptr) << *path;
    stats::StreamingMoments moments(kAttributes);
    std::vector<const double*> columns;
    ASSERT_TRUE(columnar->ResetBlocks().ok());
    size_t total = 0;
    for (;;) {
      auto rows = columnar->NextBlockColumns(&columns);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      if (rows.value() == 0) break;
      moments.AccumulateColumns(columns.data(), rows.value());
      total += rows.value();
    }
    EXPECT_EQ(total, kRecords);
    EXPECT_EQ(moments.means(), row_major.means()) << *path;
    EXPECT_TRUE(moments.FinalizeCovariance() == expected_cov) << *path;
  }
}

// The read failpoint must cover the columnar path too: a metrics-only
// attack reads a store through NextBlockColumns alone.
TEST_F(ShardedSourceTest, ReadFailpointFiresOnColumnarBlocks) {
  struct DisarmOnExit {
    ~DisarmOnExit() { DisarmAllFailpoints(); }
  } disarm;
  auto opened_store = ColumnStoreRecordSource::Open(store_.path());
  ASSERT_TRUE(opened_store.ok()) << opened_store.status().ToString();
  ColumnStoreRecordSource single_file = std::move(opened_store).value();
  auto opened_manifest = ShardedRecordSource::Open(misaligned_.path());
  ASSERT_TRUE(opened_manifest.ok()) << opened_manifest.status().ToString();
  ShardedRecordSource sharded = std::move(opened_manifest).value();
  auto pinned = data::RollingStoreSnapshotReader::Open(misaligned_.path());
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  SnapshotRecordSource snapshot(std::move(pinned).value());

  const std::pair<const char*, RecordSource*> sources[] = {
      {"column store", &single_file},
      {"sharded", &sharded},
      {"snapshot", &snapshot},
  };
  for (const auto& [name, source] : sources) {
    ColumnarBlockStream* columnar = source->columnar_blocks();
    ASSERT_NE(columnar, nullptr) << name;
    ASSERT_TRUE(columnar->ResetBlocks().ok());
    ASSERT_TRUE(
        ArmFailpoint("source.next_chunk", FailpointAction::kError).ok());
    std::vector<const double*> columns;
    auto failed = columnar->NextBlockColumns(&columns);
    ASSERT_FALSE(failed.ok()) << name;
    EXPECT_EQ(failed.status().code(), StatusCode::kIoError) << name;
    // The fault fired once and consumed no block.
    auto served = columnar->NextBlockColumns(&columns);
    ASSERT_TRUE(served.ok()) << name << ": " << served.status().ToString();
    EXPECT_EQ(served.value(), kBlockRows) << name;
    DisarmAllFailpoints();
  }
}

TEST_F(ShardedSourceTest, ShardedChunkSinkRoundTripsTheAttackOutput) {
  ScratchShardedStore out{"recon.rrcm"};
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

  auto sharded_opened = OpenRecordSource(store_.path());
  ASSERT_TRUE(sharded_opened.ok());
  RecordSinkOptions sink_options;
  sink_options.shard_rows = 250;  // 3 shards, the last partial.
  auto sink = CreateRecordSink(out.path(),
                               sharded_opened.value().attribute_names,
                               sink_options);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();
  ASSERT_TRUE(StreamingAttackPipeline(options)
                  .Run(sharded_opened.value().source.get(), noise,
                       sink.value().get())
                  .ok());
  ASSERT_TRUE(sink.value()->Close().ok());

  auto manifest = data::ReadShardManifest(out.path());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest.value().shards.size(), 3u);
  auto read_back = data::ReadShardedStoreDataset(out.path());
  ASSERT_TRUE(read_back.ok()) << read_back.status().ToString();
  EXPECT_TRUE(read_back.value().records() == collect.ToMatrix());
}

TEST_F(ShardedSourceTest, PerShardJobsDecomposeTheManifest) {
  PipelineJob prototype;
  prototype.name = "sweep";
  prototype.noise =
      perturb::NoiseModel::IndependentGaussian(kAttributes, kSigma);
  prototype.attack.attack = StreamingAttack::kSpectralFiltering;

  auto jobs = MakePerShardJobs(misaligned_.path(), prototype);
  ASSERT_TRUE(jobs.ok()) << jobs.status().ToString();
  const size_t expected_shards = (kRecords + 97 - 1) / 97;
  ASSERT_EQ(jobs.value().size(), expected_shards);
  EXPECT_EQ(jobs.value()[0].name, "sweep/shard-0");

  const auto results = RunPipelineJobs(jobs.value());
  ASSERT_EQ(results.size(), expected_shards);
  size_t total_records = 0;
  for (size_t s = 0; s < results.size(); ++s) {
    ASSERT_TRUE(results[s].status.ok())
        << results[s].name << ": " << results[s].status.ToString();
    total_records += results[s].report.num_records;
    EXPECT_EQ(results[s].report.num_attributes, kAttributes);
  }
  EXPECT_EQ(total_records, kRecords);

  // Shard jobs are ordinary single-file attacks: job k's report matches
  // an attack run directly over shard k's file (scheduling never changes
  // numbers).
  auto manifest = data::ReadShardManifest(misaligned_.path());
  ASSERT_TRUE(manifest.ok());
  const std::string shard0 = data::ManifestDirectory(misaligned_.path()) +
                             manifest.value().shards[0].relative_path;
  auto opened = OpenRecordSource(shard0);
  ASSERT_TRUE(opened.ok());
  NullChunkSink null_sink;
  StreamingAttackOptions options;
  options.attack = StreamingAttack::kSpectralFiltering;
  auto direct = StreamingAttackPipeline(options).Run(
      opened.value().source.get(), prototype.noise, &null_sink);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.value().eigenvalues, results[0].report.eigenvalues);
  EXPECT_EQ(direct.value().rmse_vs_disguised,
            results[0].report.rmse_vs_disguised);
}

TEST_F(ShardedSourceTest, CorruptShardFailsItsJobNotTheBatch) {
  // Delete the middle shard: the whole-manifest job fails with a Status
  // naming the shard, while an independent healthy job in the same batch
  // still succeeds (per-job isolation).
  auto manifest = data::ReadShardManifest(misaligned_.path());
  ASSERT_TRUE(manifest.ok());
  const std::string victim = data::ManifestDirectory(misaligned_.path()) +
                             manifest.value().shards[3].relative_path;
  ASSERT_EQ(std::remove(victim.c_str()), 0);

  auto make_source_factory = [](std::string path) {
    return [path]() -> Result<std::unique_ptr<RecordSource>> {
      RR_ASSIGN_OR_RETURN(OpenedRecordSource opened, OpenRecordSource(path));
      return std::move(opened.source);
    };
  };
  std::vector<PipelineJob> jobs(2);
  jobs[0].name = "broken";
  jobs[0].disguised = make_source_factory(misaligned_.path());
  jobs[0].noise = perturb::NoiseModel::IndependentGaussian(kAttributes, kSigma);
  jobs[1].name = "healthy";
  jobs[1].disguised = make_source_factory(store_.path());
  jobs[1].noise = perturb::NoiseModel::IndependentGaussian(kAttributes, kSigma);

  const auto results = RunPipelineJobs(jobs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].status.ok());
  EXPECT_NE(results[0].status.message().find("shard 3"), std::string::npos)
      << results[0].status.ToString();
  EXPECT_TRUE(results[1].status.ok()) << results[1].status.ToString();
}

}  // namespace
}  // namespace pipeline
}  // namespace randrecon
