// live_service: the deployed daemon pair under an open loop. One producer
// thread offers fixed-size batches (m = 16, planted rank 4, no per-batch
// deadline) on a fixed schedule into IngestService; the rolling store
// rotates every kShardRows rows and retains kRetainShards shards, so the
// attacked window is a steady 32 MiB sliding window that fits in cache. A
// scheduler thread drives AttackScheduler::Tick as the daemon thread
// would, recording every cycle it runs. The run holds a nominal rate well
// under capacity, then steps through a short ladder of higher rates. This
// is the only workload that exercises the bounded queue, rotation / seal /
// publish / retire, the snapshot pin, report publishing, and CPU
// contention between ingest and attack cycles. Each cycle re-reads all
// but one shard of its window (15/16 of its input repeats).
//
// The growth trigger (min_new_rows) compares the published row count
// with the last report's, and a saturated retention window never grows,
// so a short cadence backs it up: once the window is full, a cadence tick
// attacks each newly published manifest and skips unchanged ones.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "common/metrics.h"
#include "data/shard_store.h"
#include "harness.h"
#include "instrument.h"
#include "perturb/schemes.h"
#include "pipeline/attack_scheduler.h"
#include "pipeline/ingest.h"
#include "workload.h"

namespace perfbench {

namespace rr = randrecon;
using rr::pipeline::CycleOutcome;

namespace {

constexpr size_t kM = 16;
constexpr size_t kRank = 4;
constexpr double kPrincipal = 4.0;
constexpr double kSigma = 1.0;
constexpr size_t kBatchRows = 256;
constexpr size_t kShardRows = 16384;
constexpr size_t kRetainShards = 16;
/// 16 MiB of queued batches: enough to ride out a disk stall at a
/// rotation's fsync at the top ladder rate, so a step fails on capacity,
/// not on one slow fsync.
constexpr size_t kQueueBatches = 256;
constexpr uint64_t kAdmissionTimeoutNs = 50'000'000;
/// append_p99_us limit for a sustained ladder step: half the admission
/// timeout, so a step fails on latency before it sheds, yet well above the
/// 3-10 ms a producer waits for a core while an attack cycle runs on all
/// of them.
constexpr double kAppendLimitUs = 25'000.0;
/// A step's queue grows when its mean depth over the last third of the
/// step exceeds that over the first third by this many batches.
constexpr double kQueueGrowthBatches = kQueueBatches / 16.0;
constexpr uint64_t kCadenceNs = 2'000'000;
constexpr auto kSchedulerPoll = std::chrono::milliseconds(1);
constexpr double kNominalRowsPerS = 100'000;
/// The ladder tops out at 4x nominal, under the ~800k rows/s where this
/// box's queue starts to back up, so a run reads its top step unless a
/// change costs ingest capacity.
constexpr double kLadderRowsPerS[] = {200'000, 300'000, 400'000};
constexpr double kNominalShare = 0.6;
constexpr int kSetupRepeats = 9;
/// Set-up fills the retention window before the schedule starts, so every
/// measured cycle attacks a full window.
constexpr size_t kPrefillBatches = kRetainShards * kShardRows / kBatchRows;
/// Delay from the end of set-up to the first scheduled batch, so both
/// threads are running before anything is due.
constexpr uint64_t kStartDelayNs = 20'000'000;

struct BatchRecord {
  uint64_t due_ns = 0;
  uint64_t send_ns = 0;
  uint64_t return_ns = 0;
  size_t phase = 0;
  bool accepted = false;
  /// Global row count once this batch is appended (accepted batches).
  uint64_t end_rows = 0;
};

struct DepthSample {
  uint64_t at_ns = 0;
  size_t phase = 0;
  int64_t depth = 0;
};

/// The traced stretch of a --trace 1 run: the second half of the nominal
/// phase.
struct TraceWindow {
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  std::vector<rr::trace::Span> spans;
  rr::metrics::MetricsSnapshot counters_begin;
  rr::metrics::MetricsSnapshot counters_end;
};

struct CycleRecord {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  CycleOutcome outcome = CycleOutcome::kNotDue;
  uint64_t manifest_hash = 0;
  uint64_t snapshot_rows = 0;
  double job_s = 0;
  size_t components = 0;
};

/// Maps published manifests to the global row count they cover. Shards are
/// full kShardRows each except the tail a Close seals, and file indices
/// never repeat, so a manifest whose first shard is file k covers
/// k * kShardRows + num_records rows. Re-reads the manifest only when the
/// file was replaced.
class ManifestWatch {
 public:
  explicit ManifestWatch(std::string path) : path_(std::move(path)) {}

  void Poll() {
    struct stat st {};
    if (::stat(path_.c_str(), &st) != 0) return;
    const uint64_t stamp = static_cast<uint64_t>(st.st_ino) * 1'000'000'007ull ^
                           static_cast<uint64_t>(st.st_mtim.tv_nsec) ^
                           static_cast<uint64_t>(st.st_size);
    if (stamp == last_stamp_) return;
    rr::Result<rr::data::ShardManifest> manifest = rr::data::ReadShardManifest(path_);
    if (!manifest.ok() || manifest.value().shards.empty()) return;
    last_stamp_ = stamp;
    const int64_t first = ShardIndexFromPath(manifest.value().shards.front().relative_path);
    if (first < 0) return;
    covered_[manifest.value().manifest_hash] =
        static_cast<uint64_t>(first) * kShardRows + manifest.value().num_records;
  }

  /// Rows the manifest with `hash` covers, 0 if it was never seen.
  uint64_t Covered(uint64_t hash) const {
    auto it = covered_.find(hash);
    return it == covered_.end() ? 0 : it->second;
  }

 private:
  std::string path_;
  uint64_t last_stamp_ = 0;
  std::map<uint64_t, uint64_t> covered_;
};

int64_t QueueDepth(const std::string& status_json) {
  static const char kKey[] = "\"queue_depth\":";
  const size_t at = status_json.find(kKey);
  if (at == std::string::npos) return -1;
  return std::strtoll(status_json.c_str() + at + sizeof(kKey) - 1, nullptr, 10);
}

std::string RatesJson() {
  std::string json = "[";
  for (double rate : kLadderRowsPerS) {
    json += (json.size() > 1 ? "," : "") + std::to_string(static_cast<int64_t>(rate));
  }
  return json + "]";
}

rr::Result<std::unique_ptr<rr::pipeline::RecordSource>> Originals(
    const rr::linalg::Matrix& covariance, size_t rows, uint64_t seed) {
  RR_ASSIGN_OR_RETURN(rr::pipeline::MvnRecordSource originals,
                      rr::pipeline::MvnRecordSource::Create(rr::linalg::Vector(kM, 0.0),
                                                            covariance, rows, seed));
  return std::unique_ptr<rr::pipeline::RecordSource>(
      std::make_unique<rr::pipeline::MvnRecordSource>(std::move(originals)));
}

struct Service {
  std::unique_ptr<rr::pipeline::IngestService> ingest;
  std::unique_ptr<rr::pipeline::AttackScheduler> scheduler;
};

rr::Result<Service> StartService(const std::string& dir) {
  std::filesystem::create_directories(dir);
  rr::pipeline::IngestOptions ingest;
  ingest.queue_batches = kQueueBatches;
  ingest.admission_timeout_nanos = kAdmissionTimeoutNs;
  ingest.store.shard_rows = kShardRows;
  ingest.store.retain_shards = kRetainShards;
  rr::pipeline::AttackSchedulerOptions scheduler;
  scheduler.min_new_rows = kShardRows;
  scheduler.cadence_nanos = kCadenceNs;
  scheduler.sigma = kSigma;
  scheduler.attack = AttackOptions(rr::pipeline::StreamingAttack::kPcaDr);
  scheduler.retry.max_attempts = 3;
  scheduler.report_dir = dir + "/reports";
  scheduler.retain_reports = 8;
  Service service;
  RR_ASSIGN_OR_RETURN(service.ingest, rr::pipeline::IngestService::Start(
                                          dir + "/live.rrcm", ColumnNames(kM), ingest));
  RR_ASSIGN_OR_RETURN(service.scheduler,
                      rr::pipeline::AttackScheduler::Create(dir + "/live.rrcm", scheduler));
  return service;
}

/// Offers the prefill batches back to back, then waits until a published
/// manifest holds them.
rr::Status Prefill(rr::pipeline::IngestService* ingest, rr::pipeline::RecordSource* disguised) {
  rr::linalg::Matrix chunk(kBatchRows, kM);
  for (size_t b = 0; b < kPrefillBatches; ++b) {
    RR_ASSIGN_OR_RETURN(const size_t rows, disguised->NextChunk(&chunk));
    if (rows != kBatchRows) return rr::Status::FailedPrecondition("prefill: generator ran dry");
    RR_RETURN_NOT_OK(ingest->Offer(chunk, rows));
  }
  const uint64_t deadline_ns = rr::trace::NowNanos() + 10'000'000'000ull;
  for (;;) {
    const rr::Result<rr::data::ShardManifest> published =
        rr::data::ReadShardManifest(ingest->manifest_path());
    if (published.ok() && published.value().num_records >= kPrefillBatches * kBatchRows) {
      return rr::Status::OK();
    }
    if (rr::trace::NowNanos() > deadline_ns) {
      return rr::Status::DeadlineExceeded("prefill: window not published within 10 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Runs PCA-DR directly over the closed store's manifest, with the
/// window's originals (replayed from the seed, shed batches skipped) as
/// reference, and SF beside it. Gates bitwise equality with the scheduler's
/// final report, planted p and the RMSE band; returns the RMSE.
double CheckFinalWindow(const std::string& manifest,
                        const rr::pipeline::StreamingAttackReport& scheduled,
                        const rr::linalg::Matrix& covariance, uint64_t originals_seed,
                        size_t generated_rows, const std::vector<BatchRecord>& batches,
                        uint64_t accepted_rows, WorkloadResult* result) {
  rr::Result<rr::pipeline::ShardedRecordSource> opened =
      rr::pipeline::ShardedRecordSource::Open(manifest);
  rr::Result<std::unique_ptr<rr::pipeline::RecordSource>> replay =
      Originals(covariance, generated_rows, originals_seed);
  if (!opened.ok() || !replay.ok()) {
    result->Fail("final window: " + (opened.ok() ? replay.status() : opened.status()).ToString());
    return 0.0;
  }
  rr::pipeline::ShardedRecordSource window = std::move(opened).value();
  const uint64_t window_begin = accepted_rows - window.num_records();
  rr::linalg::Matrix window_originals(window.num_records(), kM);
  rr::linalg::Matrix chunk(kBatchRows, kM);
  uint64_t row = 0;
  for (size_t b = 0; b < kPrefillBatches + batches.size(); ++b) {
    const rr::Result<size_t> got = replay.value()->NextChunk(&chunk);
    if (!got.ok() || got.value() != kBatchRows) {
      result->Fail("final window: originals replay failed");
      return 0.0;
    }
    if (b >= kPrefillBatches && !batches[b - kPrefillBatches].accepted) continue;
    for (size_t i = 0; i < kBatchRows; ++i, ++row) {
      if (row >= window_begin) {
        std::memcpy(window_originals.row_data(row - window_begin), chunk.row_data(i),
                    kM * sizeof(double));
      }
    }
  }
  rr::pipeline::MatrixRecordSource reference(std::move(window_originals));
  rr::pipeline::NullChunkSink null_sink;
  const rr::perturb::NoiseModel noise = rr::perturb::NoiseModel::IndependentGaussian(kM, kSigma);
  const rr::Result<rr::pipeline::StreamingAttackReport> direct =
      rr::pipeline::StreamingAttackPipeline(AttackOptions(rr::pipeline::StreamingAttack::kPcaDr))
          .Run(&window, noise, &null_sink, &reference);
  const rr::Result<rr::pipeline::StreamingAttackReport> direct_sf =
      rr::pipeline::StreamingAttackPipeline(
          AttackOptions(rr::pipeline::StreamingAttack::kSpectralFiltering))
          .Run(&window, noise, &null_sink);
  if (!direct_sf.ok() || direct_sf.value().num_components != kRank) {
    result->Fail("sf over the final window of " + std::to_string(window.num_records()) +
                 " rows: " +
                 (direct_sf.ok() ? "selected p=" + std::to_string(direct_sf.value().num_components)
                                 : direct_sf.status().ToString()));
  }
  if (!direct.ok() || !SameReport(direct.value(), scheduled)) {
    result->Fail("final cycle differs from a direct pipeline run over the same manifest");
    return 0.0;
  }
  const double rmse = direct.value().rmse_vs_reference;
  const double expected = ProjectionRmse(kSigma, kRank, kM);
  if (rmse < kRmseBandLow * expected || rmse > kRmseBandHigh * expected) {
    result->Fail("rmse_vs_reference=" + std::to_string(rmse) + " outside [" +
                 std::to_string(kRmseBandLow * expected) + ", " +
                 std::to_string(kRmseBandHigh * expected) + "]");
  }
  return rmse;
}

/// The measured appended rate of the highest ladder step held (phase 0,
/// the nominal rate, counts as the first step): zero sheds, append p99
/// within kAppendLimitUs, and a queue whose mean depth over the step's last
/// third is at most kQueueGrowthBatches above its first third. Steps are taken in
/// order; the first one missed ends the ladder.
double SustainedRate(const std::vector<RatePhase>& phases, const std::vector<BatchRecord>& batches,
                     const std::vector<DepthSample>& depths, const std::vector<bool>& aborted) {
  double sustained = 0.0;
  for (size_t p = 0; p < phases.size(); ++p) {
    std::vector<double> step_append_us;
    uint64_t step_rows = 0;
    uint64_t first_due = 0;
    uint64_t last_return = 0;
    bool shed = false;
    for (const BatchRecord& batch : batches) {
      if (batch.phase != p) continue;
      if (first_due == 0) first_due = batch.due_ns;
      last_return = batch.return_ns;
      shed |= !batch.accepted;
      step_rows += batch.accepted ? kBatchRows : 0;
      step_append_us.push_back((batch.return_ns - batch.due_ns) * 1e-3);
    }
    std::vector<int64_t> step_depths;
    for (const DepthSample& sample : depths) {
      if (sample.phase == p) step_depths.push_back(sample.depth);
    }
    const size_t third = step_depths.size() / 3;
    double early = 0;
    double late = 0;
    for (size_t i = 0; i < third; ++i) {
      early += step_depths[i];
      late += step_depths[step_depths.size() - 1 - i];
    }
    if (third > 0) {
      early /= third;
      late /= third;
    }
    const double step_p99_us = Percentile(step_append_us, 99);
    std::fprintf(stderr,
                 "perfbench: live_service: step %zu at %.0f rows/s: %zu batches, append p99 "
                 "%.1f us, shed %d, aborted %d, depth %.1f -> %.1f\n",
                 p, phases[p].rows_per_s, step_append_us.size(), step_p99_us, shed ? 1 : 0,
                 aborted[p] ? 1 : 0, early, late);
    if (aborted[p] || shed || late > early + kQueueGrowthBatches || step_append_us.empty() ||
        step_p99_us > kAppendLimitUs || last_return <= first_due) {
      break;
    }
    sustained = step_rows / ((last_return - first_due) * 1e-9);
  }
  return sustained;
}

/// The per-layer metrics of a traced run: per-cycle medians over the
/// cycles inside the traced window (library spans matched to a cycle by
/// start time), the producer's samples inside it, counter deltas over the
/// window (data.*) or the whole run (shed and scheduler counts), and the
/// tracing overhead against the untraced cycles before the window.
void AddTracedMetrics(const TraceWindow& window, const std::vector<CycleRecord>& cycles,
                      const std::vector<BatchRecord>& batches,
                      const std::vector<DepthSample>& depths, uint64_t nominal_begin_ns,
                      uint64_t nominal_end_ns, const rr::metrics::MetricsSnapshot& counters_begin,
                      const rr::metrics::MetricsSnapshot& counters_end, WorkloadResult* result) {
  const Capture capture(window.spans);
  std::vector<double> attack, pin_publish, means, scatter, eigen, pass2, overhead, stage_ratio;
  std::vector<double> traced_cycle_s;
  std::vector<double> untraced_cycle_s;
  for (const CycleRecord& cycle : cycles) {
    if (cycle.outcome != CycleOutcome::kOk || cycle.start_ns < nominal_begin_ns ||
        cycle.start_ns >= nominal_end_ns) {
      continue;
    }
    const double wall = (cycle.end_ns - cycle.start_ns) * 1e-9;
    if (cycle.start_ns < window.begin_ns || cycle.end_ns > window.end_ns) {
      if (cycle.end_ns <= window.begin_ns) untraced_cycle_s.push_back(wall);
      continue;
    }
    auto within = [&](const char* name) {
      return capture.TotalWithin(name, cycle.start_ns, cycle.end_ns);
    };
    const double job = within("pipeline.job");
    const double stages = within("attack.pass1_means") + within("attack.pass1_scatter") +
                          within("attack.eigen") + within("attack.pass2");
    traced_cycle_s.push_back(wall);
    attack.push_back(job);
    pin_publish.push_back(wall - job);
    means.push_back(within("attack.pass1_means"));
    scatter.push_back(within("attack.pass1_scatter"));
    eigen.push_back(within("attack.eigen"));
    pass2.push_back(within("attack.pass2"));
    overhead.push_back(job - stages);
    stage_ratio.push_back(stages / wall);
  }
  std::vector<double> offer_us;
  std::vector<double> lag_us;
  for (const BatchRecord& batch : batches) {
    if (batch.send_ns < window.begin_ns || batch.return_ns > window.end_ns) continue;
    offer_us.push_back((batch.return_ns - batch.send_ns) * 1e-3);
    lag_us.push_back(batch.send_ns > batch.due_ns ? (batch.send_ns - batch.due_ns) * 1e-3 : 0.0);
  }
  int64_t depth_max = 0;
  for (const DepthSample& sample : depths) {
    if (sample.at_ns >= window.begin_ns && sample.at_ns <= window.end_ns) {
      depth_max = std::max(depth_max, sample.depth);
    }
  }
  auto traced_delta = [&](const char* name) {
    return static_cast<double>(CounterValue(window.counters_end, name) -
                               CounterValue(window.counters_begin, name));
  };
  auto run_delta = [&](const char* name) {
    return static_cast<double>(CounterValue(counters_end, name) -
                               CounterValue(counters_begin, name));
  };
  const size_t n = traced_cycle_s.size();
  result->Add("data.append_s", capture.Total("ingest.append"), 1);
  result->Add("gen.disguised_s", capture.Total("bench.gen.disguised"), 1);
  result->Add("data.rotations", traced_delta("ingest.rotations"));
  result->Add("data.manifest_publishes", traced_delta("ingest.manifest_publishes"));
  result->Add("data.shards_retired", traced_delta("ingest.shards_retired"));
  result->Add("stats.pass1_means_s", Median(means), n);
  result->Add("stats.pass1_scatter_s", Median(scatter), n);
  result->Add("linalg.eigen_s", Median(eigen), n);
  result->Add("attack.pass2_s", Median(pass2), n);
  result->Add("attack.pass2_self_s", Median(pass2), n);
  result->Add("runner.job_overhead_s", Median(overhead), n);
  result->Add("ingest.offer_p99_us", Percentile(offer_us, 99), offer_us.size());
  result->Add("ingest.queue_depth_max", static_cast<double>(depth_max), 1);
  result->Add("ingest.shed_admission", run_delta("ingest.shed_admission"));
  result->Add("ingest.shed_expired", run_delta("ingest.shed_expired"));
  result->Add("sched.attack_s", Median(attack), n);
  result->Add("sched.pin_publish_s", Median(pin_publish), n);
  result->Add("sched.cycles", run_delta("scheduler.cycles"));
  result->Add("sched.skipped_unchanged", run_delta("scheduler.skipped_unchanged"));
  result->Add("sched.overruns", run_delta("scheduler.overruns"));
  result->Add("loadgen.lag_p99_us", Percentile(lag_us, 99), lag_us.size());
  result->Add("trace.stage_sum_ratio", Median(stage_ratio), n);
  const double untraced = Median(untraced_cycle_s);
  result->Add("trace.overhead_ratio", untraced > 0 ? Median(traced_cycle_s) / untraced : 0.0, n + untraced_cycle_s.size());
}

/// Stops and joins a loop thread on every exit path.
class StopAndJoin {
 public:
  StopAndJoin(std::atomic<bool>* stop, std::thread* thread) : stop_(stop), thread_(thread) {}
  ~StopAndJoin() { Join(); }
  StopAndJoin(const StopAndJoin&) = delete;
  StopAndJoin& operator=(const StopAndJoin&) = delete;

  void Join() {
    *stop_ = true;
    if (thread_->joinable()) thread_->join();
  }

 private:
  std::atomic<bool>* stop_;
  std::thread* thread_;
};

}  // namespace

WorkloadResult RunLiveService(const RunConfig& config) {
  WorkloadResult result;
  const double nominal_s = kNominalShare * config.seconds;
  const double step_s = (1.0 - kNominalShare) * config.seconds / std::size(kLadderRowsPerS);
  std::vector<RatePhase> phases = {{kNominalRowsPerS, nominal_s}};
  for (double rate : kLadderRowsPerS) phases.push_back({rate, step_s});
  const std::vector<ScheduledBatch> schedule = BuildOpenLoopSchedule(phases, kBatchRows);
  const size_t scheduled_rows = schedule.size() * kBatchRows;
  result.params_json =
      "{\"m\":" + std::to_string(kM) + ",\"rank\":" + std::to_string(kRank) +
      ",\"principal\":" + std::to_string(kPrincipal) + ",\"sigma\":" + std::to_string(kSigma) +
      ",\"batch_rows\":" + std::to_string(kBatchRows) +
      ",\"shard_rows\":" + std::to_string(kShardRows) +
      ",\"retain_shards\":" + std::to_string(kRetainShards) +
      ",\"queue_batches\":" + std::to_string(kQueueBatches) +
      ",\"admission_timeout_us\":" + std::to_string(kAdmissionTimeoutNs / 1000) +
      ",\"append_limit_us\":" + std::to_string(kAppendLimitUs) +
      ",\"cadence_us\":" + std::to_string(kCadenceNs / 1000) +
      ",\"nominal_rows_per_s\":" + std::to_string(static_cast<int64_t>(kNominalRowsPerS)) +
      ",\"nominal_s\":" + std::to_string(nominal_s) + ",\"ladder_rows_per_s\":" + RatesJson() +
      ",\"ladder_step_s\":" + std::to_string(step_s) + ",\"producers\":1,\"attack\":\"pca\"}";

  // Set-up: generators, a started ingest service and scheduler, and a
  // full retention window, several times; the last one serves the run.
  const rr::linalg::Matrix covariance =
      PlantedCovariance(kM, kRank, kPrincipal, SubSeed(config.seed, 1));
  const uint64_t originals_seed = SubSeed(config.seed, 2);
  const size_t generated_rows = kPrefillBatches * kBatchRows + scheduled_rows;
  const rr::perturb::IndependentNoiseScheme scheme =
      rr::perturb::IndependentNoiseScheme::Gaussian(kM, kSigma);
  std::vector<double> setup_seconds;
  Service service;
  std::unique_ptr<rr::pipeline::RecordSource> disguised;
  SourceTally generated;
  std::string dir;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    if (service.ingest != nullptr) {
      (void)service.ingest->Close();
      service = Service{};
      std::filesystem::remove_all(dir);
    }
    dir = config.work_dir + "/live" + std::to_string(repeat);
    const double start = NowSeconds();
    rr::Result<std::unique_ptr<rr::pipeline::RecordSource>> originals =
        Originals(covariance, generated_rows, originals_seed);
    rr::Result<Service> started = StartService(dir);
    rr::Status ready = !originals.ok() ? originals.status() : started.status();
    if (ready.ok()) {
      service = std::move(started).value();
      disguised = std::make_unique<TimedRecordSource>(
          std::make_unique<rr::pipeline::PerturbingRecordSource>(std::move(originals).value(),
                                                                 &scheme, SubSeed(config.seed, 3)),
          "bench.gen.disguised", &generated);
      ready = Prefill(service.ingest.get(), disguised.get());
    }
    setup_seconds.push_back(SecondsSince(start));
    if (!ready.ok()) {
      result.Fail("set-up failed: " + ready.ToString());
      return result;
    }
  }
  const std::string manifest = service.ingest->manifest_path();

  // Scheduler thread: Tick as the daemon would, keeping every cycle run.
  std::atomic<bool> stop_scheduler{false};
  std::vector<CycleRecord> cycles;
  ManifestWatch watch(manifest);
  rr::pipeline::StreamingAttackReport last_ok_report;
  uint64_t last_ok_hash = 0;
  std::thread scheduler_thread([&] {
    while (!stop_scheduler.load()) {
      watch.Poll();
      CycleRecord cycle;
      cycle.start_ns = rr::trace::NowNanos();
      rr::pipeline::SchedulerCycleResult ran;
      {
        rr::trace::TraceSpan span("bench.tick");
        ran = service.scheduler->Tick();
      }
      cycle.end_ns = rr::trace::NowNanos();
      if (ran.outcome != CycleOutcome::kOk && ran.outcome != CycleOutcome::kDegraded &&
          ran.outcome != CycleOutcome::kFailed) {
        std::this_thread::sleep_for(kSchedulerPoll);
        continue;
      }
      watch.Poll();
      cycle.outcome = ran.outcome;
      cycle.manifest_hash = ran.manifest_hash;
      cycle.snapshot_rows = ran.snapshot_rows;
      cycle.job_s = ran.jobs.empty() ? 0.0 : ran.jobs[0].elapsed_seconds;
      cycle.components = ran.report.num_components;
      if (ran.outcome == CycleOutcome::kOk) {
        last_ok_report = ran.report;
        last_ok_hash = ran.manifest_hash;
      }
      cycles.push_back(cycle);
    }
  });
  StopAndJoin scheduler_joiner(&stop_scheduler, &scheduler_thread);

  // Producer: the fixed open-loop schedule. A batch is generated ahead,
  // offered at its due time, and timed from that due time. The ladder
  // stops at the first step whose queue reaches half its capacity.
  const rr::metrics::MetricsSnapshot counters_begin = rr::metrics::Snapshot();
  TraceWindow window;
  std::vector<BatchRecord> batches;
  std::vector<DepthSample> depths;
  std::vector<bool> step_aborted(phases.size(), false);
  rr::linalg::Matrix chunk(kBatchRows, kM);
  uint64_t accepted_rows = kPrefillBatches * kBatchRows;
  AnonRssSampler rss;
  const uint64_t origin_ns = rr::trace::NowNanos() + kStartDelayNs;
  for (size_t b = 0; b < schedule.size(); ++b) {
    const ScheduledBatch& slot = schedule[b];
    if (step_aborted[slot.phase]) break;
    const rr::Result<size_t> rows = disguised->NextChunk(&chunk);
    if (!rows.ok() || rows.value() != kBatchRows) {
      result.Fail("batch generation failed");
      break;
    }
    const uint64_t due_ns = origin_ns + slot.due_ns;
    // Memory, like the latencies, is measured at the nominal rate.
    if (slot.phase > 0) rss.Stop();
    if (config.trace && window.begin_ns == 0 && slot.due_ns >= nominal_s * 0.5e9) {
      window.counters_begin = rr::metrics::Snapshot();
      rr::trace::StartTracing();
      window.begin_ns = rr::trace::NowNanos();
    }
    if (window.begin_ns != 0 && window.end_ns == 0 && slot.phase > 0) {
      window.end_ns = rr::trace::NowNanos();
      window.spans = rr::trace::StopTracing();
      window.counters_end = rr::metrics::Snapshot();
    }
    const uint64_t now_ns = rr::trace::NowNanos();
    if (now_ns < due_ns) std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now_ns));
    BatchRecord record;
    record.due_ns = due_ns;
    record.phase = slot.phase;
    record.send_ns = rr::trace::NowNanos();
    rr::Status offered;
    {
      rr::trace::TraceSpan span("bench.offer");
      offered = service.ingest->Offer(chunk, kBatchRows);
    }
    record.return_ns = rr::trace::NowNanos();
    record.accepted = offered.ok();
    if (offered.ok()) accepted_rows += kBatchRows;
    record.end_rows = accepted_rows;
    batches.push_back(record);
    if (!offered.ok() && offered.code() != rr::StatusCode::kUnavailable) {
      result.Fail("offer failed: " + offered.ToString());
      break;
    }
    if (b % 8 == 0 || !offered.ok()) {
      const int64_t depth = QueueDepth(service.ingest->StatusJson());
      depths.push_back({record.return_ns, slot.phase, depth});
      if (slot.phase > 0 && (!offered.ok() || 2 * depth >= static_cast<int64_t>(kQueueBatches))) {
        for (size_t p = slot.phase; p < phases.size(); ++p) step_aborted[p] = true;
      }
    }
  }
  if (window.begin_ns != 0 && window.end_ns == 0) {
    window.end_ns = rr::trace::NowNanos();
    window.spans = rr::trace::StopTracing();
    window.counters_end = rr::metrics::Snapshot();
  }
  const uint64_t produced_ns = rr::trace::NowNanos();
  const rr::Status closed = service.ingest->Close();
  // Let the scheduler attack what the final rotation published.
  while (rr::trace::NowNanos() - produced_ns < 200'000'000ull) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  scheduler_joiner.Join();
  const double mem_peak_mb = rss.Stop();
  const rr::metrics::MetricsSnapshot counters_end = rr::metrics::Snapshot();
  if (!closed.ok()) result.Fail("ingest close failed: " + closed.ToString());

  // ---- Gates. ----------------------------------------------------------
  const rr::pipeline::IngestStats stats = service.ingest->stats();
  const uint64_t offered_batches = batches.size();
  uint64_t accepted_batches = 0;
  for (const BatchRecord& batch : batches) accepted_batches += batch.accepted ? 1 : 0;
  if (stats.batches_offered != stats.batches_appended + stats.batches_shed ||
      stats.rows_offered != stats.rows_appended + stats.rows_shed ||
      stats.batches_offered != kPrefillBatches + offered_batches ||
      stats.batches_appended != kPrefillBatches + accepted_batches ||
      stats.rows_appended != accepted_rows) {
    result.Fail("ingest accounting: offered " + std::to_string(stats.batches_offered) +
                " appended " + std::to_string(stats.batches_appended) + " shed " +
                std::to_string(stats.batches_shed) + " (producer offered " +
                std::to_string(offered_batches) + ", accepted " +
                std::to_string(accepted_batches) + ")");
  }
  rr::pipeline::AttackScheduler& scheduler = *service.scheduler;
  if (scheduler.cycles() !=
          scheduler.cycles_ok() + scheduler.cycles_degraded() + scheduler.cycles_failed() ||
      scheduler.cycles_failed() != 0) {
    result.Fail("scheduler accounting: cycles " + std::to_string(scheduler.cycles()) +
                " ok " + std::to_string(scheduler.cycles_ok()) + " degraded " +
                std::to_string(scheduler.cycles_degraded()) + " failed " +
                std::to_string(scheduler.cycles_failed()));
  }
  for (const CycleRecord& cycle : cycles) {
    if (cycle.outcome == CycleOutcome::kOk && cycle.components != kRank) {
      result.Fail("cycle selected p=" + std::to_string(cycle.components) + ", planted " +
                  std::to_string(kRank));
      break;
    }
  }

  // Contract 9: a final cycle over the closed store equals a direct
  // pipeline run over the same manifest, bitwise. A skip means the
  // published manifest is the one the last report covered.
  const rr::pipeline::SchedulerCycleResult final_cycle = scheduler.RunCycleNow();
  double rmse = 0.0;
  if (final_cycle.outcome == CycleOutcome::kOk ||
      (final_cycle.outcome == CycleOutcome::kSkippedUnchanged && last_ok_hash != 0)) {
    rmse = CheckFinalWindow(
        manifest,
        final_cycle.outcome == CycleOutcome::kOk ? final_cycle.report : last_ok_report,
        covariance, originals_seed, generated_rows, batches, accepted_rows, &result);
  } else {
    result.Fail("final cycle: " + std::string(rr::pipeline::CycleOutcomeName(final_cycle.outcome)) +
                ": " + final_cycle.status.ToString());
  }
  result.attempted = offered_batches + cycles.size();
  result.failed = (offered_batches - accepted_batches) + scheduler.cycles_failed();
  service = Service{};
  std::filesystem::remove_all(config.work_dir);

  // ---- Metrics. --------------------------------------------------------
  const uint64_t nominal_end_ns = origin_ns + static_cast<uint64_t>(nominal_s * 1e9);
  std::vector<double> append_us;
  std::vector<uint64_t> nominal_end_rows;
  std::vector<uint64_t> nominal_due;
  for (const BatchRecord& batch : batches) {
    if (batch.phase != 0 || !batch.accepted) continue;
    append_us.push_back((batch.return_ns - batch.due_ns) * 1e-3);
    nominal_end_rows.push_back(batch.end_rows);
    nominal_due.push_back(batch.due_ns);
  }
  std::vector<PublishedReport> reports;
  size_t unmapped = 0;
  std::vector<double> cycle_s;
  std::vector<double> job_s;
  std::vector<double> cycle_rows_per_s;
  for (const CycleRecord& cycle : cycles) {
    if (cycle.outcome == CycleOutcome::kFailed) continue;
    const uint64_t covered = watch.Covered(cycle.manifest_hash);
    if (covered == 0) ++unmapped;
    reports.push_back({covered, cycle.end_ns});
    if (cycle.start_ns >= origin_ns && cycle.start_ns < nominal_end_ns) {
      cycle_s.push_back((cycle.end_ns - cycle.start_ns) * 1e-9);
      job_s.push_back(cycle.job_s);
      cycle_rows_per_s.push_back(cycle.snapshot_rows / ((cycle.end_ns - cycle.start_ns) * 1e-9));
    }
  }
  size_t uncovered = 0;
  const std::vector<double> freshness =
      FreshnessSeconds(nominal_end_rows, nominal_due, reports, &uncovered);
  if (unmapped > 0 || uncovered > 0) {
    std::fprintf(stderr, "perfbench: live_service: %zu reports of unknown coverage, %zu "
                 "nominal batches never covered\n", unmapped, uncovered);
  }

  const double sustained = SustainedRate(phases, batches, depths, step_aborted);

  // The traced mode prints the per-layer list; main picks the metrics
  // of the mode it runs in.
  if (config.trace) {
    AddTracedMetrics(window, cycles, batches, depths, origin_ns, nominal_end_ns, counters_begin,
                     counters_end, &result);
  }
  result.Add("rows_per_s", Median(cycle_rows_per_s), cycle_rows_per_s.size());
  result.Add("job_p50_s", Median(job_s), job_s.size());
  result.Add("rmse_vs_reference", rmse, 1);
  result.Add("freshness_p50_s", Median(freshness), freshness.size());
  result.Add("freshness_p99_s", Percentile(freshness, 99), freshness.size());
  result.Add("append_p99_us", Percentile(append_us, 99), append_us.size());
  result.Add("cycle_p50_s", Median(cycle_s), cycle_s.size());
  result.Add("max_sustained_rows_per_s", sustained, 1);
  result.Add("setup_s", Median(setup_seconds), setup_seconds.size());
  result.Add("mem_peak_mb", mem_peak_mb, 1);
  return result;
}

}  // namespace perfbench
