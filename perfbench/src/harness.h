// Measurement helpers of the benchmark driver that do not touch the
// library: percentiles over raw samples, the open-loop send schedule, and
// the mapping from batches to the first report that covers them. Kept
// library-free so tests/harness_test.cc pins them in isolation.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The q-th percentile (q in [0, 100]) of `samples` by linear
/// interpolation between order statistics (numpy's default rule). The
/// vector is taken by value and sorted. Returns 0 for no samples.
double Percentile(std::vector<double> samples, double q);

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

/// One constant-rate stretch of an open-loop producer.
struct RatePhase {
  double rows_per_s = 0;
  double seconds = 0;
};

/// One scheduled batch: when it is due, relative to the schedule start,
/// and which phase it belongs to.
struct ScheduledBatch {
  uint64_t due_ns = 0;
  size_t phase = 0;
};

/// The fixed send schedule of an open loop offering `batch_rows`-row
/// batches through `phases` back to back. Phase p holds
/// floor(rows_per_s * seconds / batch_rows) batches spaced
/// batch_rows / rows_per_s apart; it starts where the previous phase's
/// time ends, whatever the rounding left over.
std::vector<ScheduledBatch> BuildOpenLoopSchedule(
    const std::vector<RatePhase>& phases, size_t batch_rows);

/// A published report: the global row count it covers (every row index
/// below `covered_rows` is in its snapshot or was before retention) and
/// when it was published.
struct PublishedReport {
  uint64_t covered_rows = 0;
  uint64_t publish_ns = 0;
};

/// For each batch (ending at global row `batch_end_rows[i]`, due at
/// `due_ns[i]`; batch ends non-decreasing, as one producer sends them),
/// the time from its due time until the first report in
/// `reports` (publish order) whose coverage reaches the batch's last row.
/// Batches no report covers get no entry; `*uncovered` counts them.
/// Coverage is taken as the running maximum over the reports, so a report
/// that maps to less than an earlier one never un-covers rows.
std::vector<double> FreshnessSeconds(const std::vector<uint64_t>& batch_end_rows,
                                     const std::vector<uint64_t>& due_ns,
                                     const std::vector<PublishedReport>& reports,
                                     size_t* uncovered);

/// The shard index k of a rolling-store shard file named
/// "<stem>.shard-<k>.rrcs" (any directory prefix), or -1 if the name does
/// not follow that scheme.
int64_t ShardIndexFromPath(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
