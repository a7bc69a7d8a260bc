// store_sweep: an offline audit of a stored report log. A sealed rolling
// sharded store of already-disguised records (planted rank-4 spectrum,
// m = 16, 1e7 rows: 1.28 GB, over 4x the 300 MiB last-level cache of the
// reference box) is attacked by one closed-loop client running
// whole-manifest jobs back to back through RunPipelineJobs, alternating SF
// and PCA-DR, with no sink and no reference — what sweep_attack and every
// scheduler cycle run. The working set dwarfs the cache, so the reads and
// the three data sweeps are nearly all the work. Every job re-reads the
// same sealed shards: 100% of its input repeats.
#include <algorithm>
#include <filesystem>

#include "data/rolling_store.h"
#include "harness.h"
#include "instrument.h"
#include "perturb/schemes.h"
#include "pipeline/runner.h"
#include "workload.h"

namespace perfbench {

namespace rr = randrecon;
using rr::pipeline::StreamingAttack;

namespace {

constexpr size_t kM = 16;
constexpr size_t kRank = 4;
constexpr double kPrincipal = 4.0;
constexpr double kSigma = 1.0;
constexpr size_t kRows = 10'000'000;
constexpr size_t kShardRows = size_t{1} << 20;
constexpr size_t kAppendRows = 4096;
constexpr int kSetupRepeats = 3;
constexpr int kMinJobsPerAttack = 2;

struct Inputs {
  rr::linalg::Matrix covariance;
  uint64_t originals_seed;
  uint64_t noise_seed;
};

rr::Result<rr::pipeline::MvnRecordSource> Originals(const Inputs& inputs) {
  return rr::pipeline::MvnRecordSource::Create(rr::linalg::Vector(kM, 0.0), inputs.covariance,
                                               kRows, inputs.originals_seed);
}

/// Streams the disguised records into a sealed rolling store, keeping each
/// Append's wall time.
rr::Status BuildStore(const Inputs& inputs, const std::string& manifest,
                      std::vector<double>* append_seconds) {
  RR_ASSIGN_OR_RETURN(rr::pipeline::MvnRecordSource originals, Originals(inputs));
  const rr::perturb::IndependentNoiseScheme scheme =
      rr::perturb::IndependentNoiseScheme::Gaussian(kM, kSigma);
  rr::pipeline::PerturbingRecordSource disguised(
      std::make_unique<rr::pipeline::MvnRecordSource>(std::move(originals)), &scheme,
      inputs.noise_seed);
  rr::data::RollingStoreOptions options;
  options.shard_rows = kShardRows;
  RR_ASSIGN_OR_RETURN(rr::data::RollingShardedStoreWriter writer,
                      rr::data::RollingShardedStoreWriter::Create(manifest, ColumnNames(kM),
                                                                  options));
  rr::linalg::Matrix chunk(kAppendRows, kM);
  for (;;) {
    RR_ASSIGN_OR_RETURN(const size_t rows, disguised.NextChunk(&chunk));
    if (rows == 0) break;
    const double start = NowSeconds();
    RR_RETURN_NOT_OK(writer.Append(chunk, rows));
    append_seconds->push_back(SecondsSince(start));
  }
  return writer.Close();
}

rr::pipeline::PipelineJob StoreJob(const std::string& manifest, StreamingAttack attack,
                                   SourceTally* tally) {
  rr::pipeline::PipelineJob job;
  job.name = attack == StreamingAttack::kPcaDr ? "pca" : "sf";
  job.noise = rr::perturb::NoiseModel::IndependentGaussian(kM, kSigma);
  job.attack = AttackOptions(attack);
  job.disguised = [manifest, tally]() -> rr::Result<std::unique_ptr<rr::pipeline::RecordSource>> {
    RR_ASSIGN_OR_RETURN(rr::pipeline::ShardedRecordSource store,
                        rr::pipeline::ShardedRecordSource::Open(manifest));
    std::unique_ptr<rr::pipeline::RecordSource> source =
        std::make_unique<rr::pipeline::ShardedRecordSource>(std::move(store));
    if (tally != nullptr) {
      source = std::make_unique<TimedRecordSource>(std::move(source), "bench.read", tally);
    }
    return source;
  };
  return job;
}

/// PCA-DR against the regenerated originals, which the stored records
/// disguise row for row: gates p and the RMSE band, returns the RMSE.
double CheckAgainstOriginals(const Inputs& inputs, const std::string& manifest,
                             WorkloadResult* result) {
  rr::pipeline::PipelineJob check = StoreJob(manifest, StreamingAttack::kPcaDr, nullptr);
  check.name = "pca-vs-originals";
  check.reference = [&inputs]() -> rr::Result<std::unique_ptr<rr::pipeline::RecordSource>> {
    RR_ASSIGN_OR_RETURN(rr::pipeline::MvnRecordSource originals, Originals(inputs));
    return std::unique_ptr<rr::pipeline::RecordSource>(
        std::make_unique<rr::pipeline::MvnRecordSource>(std::move(originals)));
  };
  const rr::pipeline::PipelineJobResult checked = rr::pipeline::RunPipelineJobs({check})[0];
  if (!checked.status.ok()) {
    result->Fail("reference check failed: " + checked.status.ToString());
    return 0.0;
  }
  const double rmse = checked.report.rmse_vs_reference;
  const double expected = ProjectionRmse(kSigma, kRank, kM);
  if (checked.report.num_components != kRank || rmse < kRmseBandLow * expected ||
      rmse > kRmseBandHigh * expected) {
    result->Fail("reference check: p=" + std::to_string(checked.report.num_components) +
                 " rmse_vs_reference=" + std::to_string(rmse) + " outside [" +
                 std::to_string(kRmseBandLow * expected) + ", " +
                 std::to_string(kRmseBandHigh * expected) + "]");
  }
  return rmse;
}

/// One traced job, split by layer (seconds unless named otherwise).
struct JobLayers {
  double wall_s = 0;
  double job_span_s = 0;
  double read_s = 0;
  double means_s = 0;
  double scatter_s = 0;
  double eigen_s = 0;
  double pass2_s = 0;
  double pass2_self_s = 0;
  uint64_t rows_served = 0;

  double stages_s() const { return means_s + scatter_s + eigen_s + pass2_s; }
};

JobLayers SplitJob(const std::vector<rr::trace::Span>& spans, double wall_s,
                   uint64_t rows_served) {
  const Capture capture(spans);
  JobLayers job;
  job.wall_s = wall_s;
  job.job_span_s = capture.Total("pipeline.job");
  job.read_s = capture.Total("bench.read");
  job.means_s = capture.Total("attack.pass1_means");
  job.scatter_s = capture.Total("attack.pass1_scatter");
  job.eigen_s = capture.Total("attack.eigen");
  job.pass2_s = capture.Total("attack.pass2");
  job.pass2_self_s = capture.SelfTotal("attack.pass2", {"bench.read"});
  job.rows_served = rows_served;
  return job;
}

/// The per-layer metrics: per-job medians over the traced jobs, and the
/// tracing overhead against the interleaved untraced jobs.
void AddLayerMetrics(const std::vector<JobLayers>& traced,
                     const std::vector<double>& untraced_wall_s, WorkloadResult* result) {
  const size_t n = traced.size();
  auto median = [&](auto field) {
    std::vector<double> values;
    for (const JobLayers& job : traced) values.push_back(static_cast<double>(field(job)));
    return Median(std::move(values));
  };
  const double rows_served = median([](const JobLayers& j) { return j.rows_served; });
  result->Add("data.read_s", median([](const JobLayers& j) { return j.read_s; }), n);
  result->Add("data.sweeps_per_job", rows_served / kRows, n);
  result->Add("data.bytes_read_per_job", rows_served * kM * sizeof(double), n);
  result->Add("stats.pass1_means_s", median([](const JobLayers& j) { return j.means_s; }), n);
  result->Add("stats.pass1_scatter_s", median([](const JobLayers& j) { return j.scatter_s; }), n);
  result->Add("linalg.eigen_s", median([](const JobLayers& j) { return j.eigen_s; }), n);
  result->Add("attack.pass2_s", median([](const JobLayers& j) { return j.pass2_s; }), n);
  result->Add("attack.pass2_self_s", median([](const JobLayers& j) { return j.pass2_self_s; }), n);
  result->Add("runner.job_overhead_s",
              median([](const JobLayers& j) { return j.job_span_s - j.stages_s(); }), n);
  result->Add("trace.stage_sum_ratio",
              median([](const JobLayers& j) { return j.stages_s() / j.wall_s; }), n);
  std::vector<double> traced_wall;
  for (const JobLayers& job : traced) traced_wall.push_back(job.wall_s);
  const double untraced = Median(untraced_wall_s);
  result->Add("trace.overhead_ratio", untraced > 0 ? Median(traced_wall) / untraced : 0.0,
              n + untraced_wall_s.size());
}

}  // namespace

WorkloadResult RunStoreSweep(const RunConfig& config) {
  WorkloadResult result;
  result.params_json = "{\"m\":" + std::to_string(kM) + ",\"n\":" + std::to_string(kRows) +
                       ",\"rank\":" + std::to_string(kRank) +
                       ",\"principal\":" + std::to_string(kPrincipal) +
                       ",\"sigma\":" + std::to_string(kSigma) +
                       ",\"shard_rows\":" + std::to_string(kShardRows) +
                       ",\"append_rows\":" + std::to_string(kAppendRows) +
                       ",\"setup_repeats\":" + std::to_string(kSetupRepeats) +
                       ",\"clients\":1,\"attacks\":\"sf,pca alternating\"}";
  const Inputs inputs{PlantedCovariance(kM, kRank, kPrincipal, SubSeed(config.seed, 1)),
                      SubSeed(config.seed, 2), SubSeed(config.seed, 3)};

  std::vector<double> setup_seconds;
  std::vector<double> append_seconds;
  std::vector<double> job_seconds;
  std::vector<double> untraced_seconds;
  std::vector<JobLayers> traced_jobs;
  rr::pipeline::StreamingAttackReport first_report[2];
  size_t jobs_per_attack[2] = {0, 0};
  uint64_t rows_attacked = 0;
  double loop_seconds = 0.0;
  size_t job_index = 0;

  // One closed-loop job; SF and PCA-DR alternate. The traced mode
  // interleaves an untraced and a traced job of the same attack, so their
  // walls give the tracing overhead.
  auto run_job = [&](const std::string& manifest) {
    const size_t i = job_index++;
    const bool traced = config.trace && i % 2 == 1;
    const size_t slot = config.trace ? (i / 2) % 2 : i % 2;
    const StreamingAttack attack =
        slot == 0 ? StreamingAttack::kSpectralFiltering : StreamingAttack::kPcaDr;
    SourceTally tally;
    const std::vector<rr::pipeline::PipelineJob> jobs = {
        StoreJob(manifest, attack, traced ? &tally : nullptr)};
    if (traced) rr::trace::StartTracing();
    const double start = NowSeconds();
    const std::vector<rr::pipeline::PipelineJobResult> ran = rr::pipeline::RunPipelineJobs(jobs);
    const double wall = SecondsSince(start);
    const std::vector<rr::trace::Span> spans =
        traced ? rr::trace::StopTracing() : std::vector<rr::trace::Span>{};
    loop_seconds += wall;
    ++result.attempted;
    if (!ran[0].status.ok()) {
      ++result.failed;
      result.Fail("job failed: " + ran[0].status.ToString());
      return;
    }
    const rr::pipeline::StreamingAttackReport& report = ran[0].report;
    rows_attacked += report.num_records;
    job_seconds.push_back(wall);
    if (traced) {
      traced_jobs.push_back(SplitJob(spans, wall, tally.rows_served));
    } else if (config.trace) {
      untraced_seconds.push_back(wall);
    }
    if (report.num_components != kRank) {
      result.Fail(std::string(jobs[0].name) + " selected p=" +
                  std::to_string(report.num_components) + ", planted " + std::to_string(kRank));
    }
    if (jobs_per_attack[slot]++ == 0) {
      first_report[slot] = report;
    } else if (!SameReport(report, first_report[slot])) {
      result.Fail(std::string(jobs[0].name) + " job " + std::to_string(i) +
                  " differs bitwise from the first " + jobs[0].name + " job");
    }
  };

  // Set-up: build the store several times; the last build is attacked.
  const std::string manifest = config.work_dir + "/log.rrcm";
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    std::filesystem::remove_all(config.work_dir);
    std::filesystem::create_directories(config.work_dir);
    const double start = NowSeconds();
    const rr::Status built = BuildStore(inputs, manifest, &append_seconds);
    setup_seconds.push_back(SecondsSince(start));
    if (!built.ok()) {
      result.Fail("store build failed: " + built.ToString());
      return result;
    }
  }

  AnonRssSampler rss;
  for (;;) {
    const bool pair_open = config.trace && job_index % 2 == 1;
    const bool enough = std::min(jobs_per_attack[0], jobs_per_attack[1]) >= kMinJobsPerAttack;
    if (!result.failure.empty() || (loop_seconds >= config.seconds && !pair_open && enough)) {
      break;
    }
    run_job(manifest);
  }
  const double mem_peak_mb = rss.Stop();
  const double rmse = CheckAgainstOriginals(inputs, manifest, &result);
  std::filesystem::remove_all(config.work_dir);
  if (!result.failure.empty()) return result;

  // The traced mode prints the per-layer list; main picks the metrics
  // of the mode it runs in.
  if (config.trace) {
    AddLayerMetrics(traced_jobs, untraced_seconds, &result);
  }
  const double rows_per_s = rows_attacked / loop_seconds;
  const double job_p50 = Median(job_seconds);
  result.Add("rows_per_s", rows_per_s, job_seconds.size());
  result.Add("job_p50_s", job_p50, job_seconds.size());
  result.Add("rmse_vs_reference", rmse, 1);
  // One closed-loop client: a report is ready one job after its request.
  result.Add("freshness_p50_s", job_p50, job_seconds.size());
  result.Add("freshness_p99_s", Percentile(job_seconds, 99), job_seconds.size());
  result.Add("append_p99_us", Percentile(append_seconds, 99) * 1e6, append_seconds.size());
  result.Add("cycle_p50_s", job_p50, job_seconds.size());
  result.Add("max_sustained_rows_per_s", rows_per_s, job_seconds.size());
  result.Add("setup_s", Median(setup_seconds), setup_seconds.size());
  result.Add("mem_peak_mb", mem_peak_mb, 1);
  return result;
}

}  // namespace perfbench
