// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload=<store_sweep|live_service> --seed=N
//             --seconds=S --trace=<0|1> --work_dir=DIR [--source_digest=HEX]
//
// --trace=0 prints the end-to-end metrics, measured with tracing off;
// --trace=1 prints the per-layer metrics from a traced run of the same
// workload. Output: one line per metric, a detail record (build stamp,
// parameters, sample counts), and as the last line the result object
// {"correct", "attempted", "failed", "metrics"}. A failed correctness gate
// prints no result and exits 1; bad flags exit 2.
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "common/build_info.h"
#include "common/flags.h"
#include "workload.h"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"rows_per_s", "1/s"},
    {"job_p50_s", "s"},
    {"rmse_vs_reference", "1"},
    {"freshness_p50_s", "s"},
    {"cycle_p50_s", "s"},
    {"max_sustained_rows_per_s", "1/s"},
    {"setup_s", "s"},
};

// The first three are end-to-end metrics that do not repeat within a
// tenth from run to run on a shared host, so they ride with the traced
// mode (perfbench/README.md).
constexpr MetricSpec kPerLayer[] = {
    {"freshness_p99_s", "s"},
    {"append_p99_us", "us"},
    {"mem_peak_mb", "MiB"},
    {"data.read_s", "s"},
    {"data.sweeps_per_job", "count"},
    {"data.bytes_read_per_job", "B"},
    {"data.append_s", "s"},
    {"data.rotations", "count"},
    {"data.manifest_publishes", "count"},
    {"data.shards_retired", "count"},
    {"stats.pass1_means_s", "s"},
    {"stats.pass1_scatter_s", "s"},
    {"linalg.eigen_s", "s"},
    {"attack.pass2_s", "s"},
    {"attack.pass2_self_s", "s"},
    {"gen.disguised_s", "s"},
    {"runner.job_overhead_s", "s"},
    {"ingest.offer_p99_us", "us"},
    {"ingest.queue_depth_max", "count"},
    {"ingest.shed_admission", "count"},
    {"ingest.shed_expired", "count"},
    {"sched.attack_s", "s"},
    {"sched.pin_publish_s", "s"},
    {"sched.cycles", "count"},
    {"sched.skipped_unchanged", "count"},
    {"sched.overruns", "count"},
    {"loadgen.lag_p99_us", "us"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.stage_sum_ratio", "ratio"},
};

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=<store_sweep|live_service> "
               "--seed=N --seconds=S --trace=<0|1> --work_dir=DIR "
               "[--source_digest=HEX]\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = randrecon::Flags::Parse(argc, argv);
  if (!flags.ok()) return Usage(flags.status().ToString());
  perfbench::RunConfig config;
  config.workload = flags.value().GetString("workload", "");
  config.work_dir = flags.value().GetString("work_dir", "");
  const std::string digest = flags.value().GetString("source_digest", "unknown");
  const auto seed = flags.value().GetInt("seed", 0);
  const auto seconds = flags.value().GetDouble("seconds", 10);
  const auto trace = flags.value().GetInt("trace", 0);
  if (!seed.ok() || seed.value() < 0 || !seconds.ok() || !(seconds.value() > 0) ||
      !trace.ok() || (trace.value() != 0 && trace.value() != 1) || config.work_dir.empty()) {
    return Usage("bad --seed, --seconds, --trace or --work_dir");
  }
  config.seed = static_cast<uint64_t>(seed.value());
  config.seconds = seconds.value();
  config.trace = trace.value() == 1;

  perfbench::WorkloadResult result;
  if (config.workload == "store_sweep") {
    result = perfbench::RunStoreSweep(config);
  } else if (config.workload == "live_service") {
    result = perfbench::RunLiveService(config);
  } else {
    return Usage("unknown workload '" + config.workload + "'");
  }

  // Every metric of the mode's list is printed, whatever else the workload
  // measured; a per-layer metric a workload does not exercise reads 0, an
  // end-to-end metric must be measured.
  struct Printed {
    const MetricSpec* spec;
    perfbench::Metric metric;
  };
  std::vector<Printed> printed;
  const std::vector<MetricSpec> specs =
      config.trace ? std::vector<MetricSpec>(std::begin(kPerLayer), std::end(kPerLayer))
                   : std::vector<MetricSpec>(std::begin(kEndToEnd), std::end(kEndToEnd));
  for (const MetricSpec& spec : specs) {
    perfbench::Metric metric{spec.name, 0.0, 0};
    bool found = false;
    for (const perfbench::Metric& measured : result.metrics) {
      if (measured.name == spec.name) {
        metric = measured;
        found = true;
      }
    }
    if (!found && !config.trace) {
      result.Fail(std::string("end-to-end metric ") + spec.name + " was not measured");
    }
    if (!std::isfinite(metric.value)) {
      result.Fail(std::string("metric ") + spec.name + " is not finite");
    }
    printed.push_back({&spec, metric});
  }
  if (!result.failure.empty()) {
    std::fprintf(stderr, "perfbench: %s: correctness gate failed: %s\n", config.workload.c_str(),
                 result.failure.c_str());
    return 1;
  }

  std::string detail;
  std::string compact;
  for (const Printed& entry : printed) {
    const std::string name = entry.spec->name;
    const std::string unit = entry.spec->unit;
    const std::string value = Number(entry.metric.value);
    std::printf("%-28s %-24s %-6s n=%zu\n", name.c_str(), value.c_str(), unit.c_str(),
                entry.metric.samples);
    detail += (detail.empty() ? "" : ",") +
              ("\"" + name + "\":{\"value\":" + value + ",\"unit\":\"" + unit +
               "\",\"samples\":" + std::to_string(entry.metric.samples) + "}");
    compact += (compact.empty() ? "" : ",") +
               ("\"" + name + "\":{\"value\":" + value + ",\"unit\":\"" + unit + "\"}");
  }
  const double failed_ratio =
      result.attempted > 0 ? static_cast<double>(result.failed) / result.attempted : 0.0;
  std::printf("failed_ratio %s (%llu of %llu)\n", Number(failed_ratio).c_str(),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  std::printf(
      "{\"perfbench\":\"run\",\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"nproc\":%u,\"source_digest\":\"%s\",\"build\":%s,\"params\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"failed_ratio\":%s,\"metrics\":{%s}}\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      Number(config.seconds).c_str(), config.trace ? 1 : 0, std::thread::hardware_concurrency(),
      digest.c_str(), randrecon::BuildInfoJson().c_str(), result.params_json.c_str(),
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), Number(failed_ratio).c_str(),
      detail.c_str());
  std::printf("{\"correct\":true,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), compact.c_str());
  return 0;
}
