// Tests of the benchmark's measurement helpers: percentiles, the open-loop
// schedule and the batch-to-report freshness mapping. Exits non-zero on
// the first failed check.
#include <cmath>
#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "harness_test:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

void TestPercentile() {
  using perfbench::Percentile;
  CHECK(Percentile({}, 50) == 0.0);
  CHECK(Percentile({7.0}, 99) == 7.0);
  // Unsorted input; linear interpolation between order statistics.
  CHECK(Near(Percentile({4, 1, 3, 2}, 50), 2.5));
  CHECK(Near(Percentile({4, 1, 3, 2}, 0), 1.0));
  CHECK(Near(Percentile({4, 1, 3, 2}, 100), 4.0));
  std::vector<double> hundred_one;
  for (int i = 0; i <= 100; ++i) hundred_one.push_back(100 - i);
  CHECK(Near(Percentile(hundred_one, 99), 99.0));
  CHECK(Near(Percentile(hundred_one, 25), 25.0));
  // Ten samples: p99 sits between the two largest, 0.91 of the way up.
  std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  CHECK(Near(Percentile(ten, 99), 9.91));
  CHECK(Near(perfbench::Median(ten), 5.5));
  // Not a log2 bucket edge: a raw 4100 us sample stays 4100.
  CHECK(Near(Percentile(std::vector<double>(200, 4100.0), 99), 4100.0));
}

void TestOpenLoopSchedule() {
  using perfbench::BuildOpenLoopSchedule;
  // 1000 rows/s for 1 s in 100-row batches: 10 batches every 100 ms; then
  // 4000 rows/s for 0.5 s: 20 batches every 25 ms starting at 1 s.
  const auto schedule = BuildOpenLoopSchedule({{1000, 1.0}, {4000, 0.5}}, 100);
  CHECK(schedule.size() == 30);
  CHECK(schedule[0].due_ns == 0 && schedule[0].phase == 0);
  CHECK(schedule[9].due_ns == 900'000'000 && schedule[9].phase == 0);
  CHECK(schedule[10].due_ns == 1'000'000'000 && schedule[10].phase == 1);
  CHECK(schedule[11].due_ns == 1'025'000'000);
  CHECK(schedule[29].due_ns == 1'475'000'000 && schedule[29].phase == 1);
  for (size_t i = 1; i < schedule.size(); ++i) CHECK(schedule[i].due_ns > schedule[i - 1].due_ns);
  // A phase whose time holds no whole batch still advances the clock.
  const auto gap = BuildOpenLoopSchedule({{50, 1.0}, {1000, 0.2}}, 100);
  CHECK(gap.size() == 2);
  CHECK(gap[0].due_ns == 1'000'000'000 && gap[0].phase == 1);
  CHECK(gap[1].due_ns == 1'100'000'000);
  CHECK(BuildOpenLoopSchedule({{0, 1.0}}, 100).empty());
}

void TestFreshness() {
  using perfbench::FreshnessSeconds;
  using perfbench::PublishedReport;
  // Batches end at rows 100, 200, 300, 400, due at 0, 1, 2, 3 s.
  const std::vector<uint64_t> ends = {100, 200, 300, 400};
  const std::vector<uint64_t> due = {0, 1'000'000'000, 2'000'000'000, 3'000'000'000};
  size_t uncovered = 99;
  // The first report covers the first two batches, the second maps to less
  // (an unmapped report reads 0) and un-covers nothing, the third covers
  // the third batch; the fourth batch is never covered.
  const std::vector<PublishedReport> reports = {
      {200, 1'500'000'000}, {0, 2'200'000'000}, {350, 2'500'000'000}};
  const auto freshness = FreshnessSeconds(ends, due, reports, &uncovered);
  CHECK(freshness.size() == 3);
  CHECK(Near(freshness[0], 1.5));
  CHECK(Near(freshness[1], 0.5));
  CHECK(Near(freshness[2], 0.5));
  CHECK(uncovered == 1);
  CHECK(FreshnessSeconds(ends, due, {}, &uncovered).empty() && uncovered == 4);
}

void TestShardIndex() {
  using perfbench::ShardIndexFromPath;
  CHECK(ShardIndexFromPath("live.shard-00042.rrcs") == 42);
  CHECK(ShardIndexFromPath("dir/x.y.shard-7.rrcs") == 7);
  CHECK(ShardIndexFromPath("live.shard-00042.rrcs.tmp") == -1);
  CHECK(ShardIndexFromPath("live.shard-.rrcs") == -1);
  CHECK(ShardIndexFromPath("live.shard-4a.rrcs") == -1);
  CHECK(ShardIndexFromPath("live.rrcm") == -1);
}

}  // namespace

int main() {
  TestPercentile();
  TestOpenLoopSchedule();
  TestFreshness();
  TestShardIndex();
  if (failures == 0) std::printf("harness_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
