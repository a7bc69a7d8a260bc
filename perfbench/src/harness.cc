#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double position =
      std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(position));
  const size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return samples[lower] + (samples[upper] - samples[lower]) * fraction;
}

std::vector<ScheduledBatch> BuildOpenLoopSchedule(
    const std::vector<RatePhase>& phases, size_t batch_rows) {
  std::vector<ScheduledBatch> schedule;
  double phase_start_s = 0.0;
  for (size_t p = 0; p < phases.size(); ++p) {
    const RatePhase& phase = phases[p];
    if (phase.rows_per_s > 0 && batch_rows > 0) {
      const double interval_s = static_cast<double>(batch_rows) / phase.rows_per_s;
      const size_t batches = static_cast<size_t>(
          std::floor(phase.rows_per_s * phase.seconds / static_cast<double>(batch_rows)));
      for (size_t i = 0; i < batches; ++i) {
        const double due_s = phase_start_s + static_cast<double>(i) * interval_s;
        schedule.push_back({static_cast<uint64_t>(std::llround(due_s * 1e9)), p});
      }
    }
    phase_start_s += phase.seconds;
  }
  return schedule;
}

std::vector<double> FreshnessSeconds(const std::vector<uint64_t>& batch_end_rows,
                                     const std::vector<uint64_t>& due_ns,
                                     const std::vector<PublishedReport>& reports,
                                     size_t* uncovered) {
  std::vector<double> freshness;
  freshness.reserve(batch_end_rows.size());
  size_t next_report = 0;
  uint64_t covered = 0;
  size_t b = 0;
  for (; b < batch_end_rows.size(); ++b) {
    while (covered < batch_end_rows[b] && next_report < reports.size()) {
      covered = std::max(covered, reports[next_report++].covered_rows);
    }
    if (covered < batch_end_rows[b] || next_report == 0) break;
    const uint64_t publish_ns = reports[next_report - 1].publish_ns;
    freshness.push_back(
        (static_cast<double>(publish_ns) - static_cast<double>(due_ns[b])) * 1e-9);
  }
  if (uncovered != nullptr) *uncovered = batch_end_rows.size() - b;
  return freshness;
}

int64_t ShardIndexFromPath(const std::string& path) {
  static const std::string kMarker = ".shard-";
  static const std::string kSuffix = ".rrcs";
  const size_t marker = path.rfind(kMarker);
  if (marker == std::string::npos || path.size() < kSuffix.size() ||
      path.compare(path.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0) {
    return -1;
  }
  const size_t digits_begin = marker + kMarker.size();
  const size_t digits_end = path.size() - kSuffix.size();
  if (digits_end <= digits_begin || digits_end - digits_begin > 18) return -1;
  int64_t index = 0;
  for (size_t i = digits_begin; i < digits_end; ++i) {
    if (path[i] < '0' || path[i] > '9') return -1;
    index = index * 10 + (path[i] - '0');
  }
  return index;
}

}  // namespace perfbench
