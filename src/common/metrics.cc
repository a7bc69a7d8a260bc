#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <thread>

#include "common/check.h"

namespace randrecon {
namespace metrics {

/// Process-wide registry, mirroring FailpointRegistry: a Meyers
/// singleton reached only through Instance(), because instruments
/// register from static initializers in arbitrary TU order and the
/// first registration must find a live registry. Namespace scope (not
/// anonymous) so the friend declarations grant it value access.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance() {
    static MetricsRegistry* registry = new MetricsRegistry();
    return *registry;
  }

  void Register(Counter* counter) {
    std::lock_guard<std::mutex> lock(mutex_);
    const bool inserted = counters_.emplace(counter->name(), counter).second;
    RR_CHECK(inserted) << "duplicate counter name '" << counter->name() << "'";
  }

  void Register(Gauge* gauge) {
    std::lock_guard<std::mutex> lock(mutex_);
    const bool inserted = gauges_.emplace(gauge->name(), gauge).second;
    RR_CHECK(inserted) << "duplicate gauge name '" << gauge->name() << "'";
  }

  void Register(Histogram* histogram) {
    std::lock_guard<std::mutex> lock(mutex_);
    const bool inserted =
        histograms_.emplace(histogram->name(), histogram).second;
    RR_CHECK(inserted) << "duplicate histogram name '" << histogram->name()
                       << "'";
  }

  MetricsSnapshot Snapshot() {
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snapshot;
    snapshot.counters.reserve(counters_.size());
    for (const auto& entry : counters_) {  // std::map iterates sorted.
      snapshot.counters.push_back({entry.first, entry.second->Value()});
    }
    snapshot.gauges.reserve(gauges_.size());
    for (const auto& entry : gauges_) {
      snapshot.gauges.push_back({entry.first, entry.second->Value()});
    }
    snapshot.histograms.reserve(histograms_.size());
    for (const auto& entry : histograms_) {
      HistogramSnapshot hs = entry.second->ConsistentSnapshot();
      hs.name = entry.first;
      snapshot.histograms.push_back(std::move(hs));
    }
    return snapshot;
  }

  void ResetAll() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& entry : counters_) {
      entry.second->value_.store(0, std::memory_order_relaxed);
    }
    for (auto& entry : gauges_) {
      entry.second->value_.store(0, std::memory_order_relaxed);
    }
    for (auto& entry : histograms_) {
      Histogram* h = entry.second;
      for (size_t b = 0; b < kHistogramBuckets; ++b) {
        h->buckets_[b].store(0, std::memory_order_relaxed);
      }
      h->count_.store(0, std::memory_order_relaxed);
      h->sum_.store(0, std::memory_order_relaxed);
      h->min_.store(~uint64_t{0}, std::memory_order_relaxed);
      h->max_.store(0, std::memory_order_relaxed);
    }
  }

  std::vector<std::string> List() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(counters_.size() + gauges_.size() + histograms_.size());
    for (const auto& entry : counters_) names.push_back(entry.first);
    for (const auto& entry : gauges_) names.push_back(entry.first);
    for (const auto& entry : histograms_) names.push_back(entry.first);
    std::sort(names.begin(), names.end());
    return names;
  }

 private:
  MetricsRegistry() = default;

  std::mutex mutex_;
  std::map<std::string, Counter*> counters_;
  std::map<std::string, Gauge*> gauges_;
  std::map<std::string, Histogram*> histograms_;
};

Counter::Counter(const char* name) : name_(name) {
  MetricsRegistry::Instance().Register(this);
}

Gauge::Gauge(const char* name) : name_(name) {
  MetricsRegistry::Instance().Register(this);
}

Histogram::Histogram(const char* name) : name_(name) {
  MetricsRegistry::Instance().Register(this);
}

size_t Histogram::BucketIndex(uint64_t value) {
  if (value == 0) return 0;
  // 1 + floor(log2(value)): value 1 -> bucket 1, [2,4) -> 2, [4,8) -> 3.
  size_t index = 1;
  while (value > 1) {
    value >>= 1;
    ++index;
  }
  return std::min(index, kHistogramBuckets - 1);
}

uint64_t Histogram::BucketUpperBound(size_t bucket) {
  if (bucket == 0) return 0;
  if (bucket >= kHistogramBuckets - 1) return ~uint64_t{0};
  return (uint64_t{1} << bucket) - 1;
}

void Histogram::Record(uint64_t value) {
#ifndef RANDRECON_DISABLE_METRICS
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // Relaxed CAS min/max: losing a race retries, so the final extremum is
  // exact once concurrent recorders have quiesced.
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
#else
  (void)value;
#endif
}

uint64_t Histogram::Min() const {
  const uint64_t min = min_.load(std::memory_order_relaxed);
  return min == ~uint64_t{0} ? 0 : min;
}

uint64_t Histogram::Max() const { return max_.load(std::memory_order_relaxed); }

uint64_t Histogram::BucketCount(size_t bucket) const {
  RR_CHECK(bucket < kHistogramBuckets) << "bucket " << bucket;
  return buckets_[bucket].load(std::memory_order_relaxed);
}

namespace {

/// Percentile over an already-captured bucket array — the shared core of
/// ValueAtPercentile (live reads) and ConsistentSnapshot (torn-free
/// capture). `count`/`min`/`max` must come from the same capture.
uint64_t PercentileFromBuckets(const uint64_t* buckets, uint64_t count,
                               uint64_t min, uint64_t max,
                               double percentile) {
  if (count == 0) return 0;
  percentile = std::min(100.0, std::max(0.0, percentile));
  // Rank of the requested sample, 1-based: p50 of 3 samples is sample 2.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(percentile / 100.0 *
                                         static_cast<double>(count))));
  uint64_t cumulative = 0;
  for (size_t bucket = 0; bucket < kHistogramBuckets; ++bucket) {
    cumulative += buckets[bucket];
    if (cumulative >= rank) {
      // Bucket resolution, but never outside what was actually seen.
      return std::min(std::max(Histogram::BucketUpperBound(bucket), min),
                      max);
    }
  }
  return max;  // Racing recorders moved the total; report the extremum.
}

}  // namespace

uint64_t Histogram::ValueAtPercentile(double percentile) const {
  uint64_t buckets[kHistogramBuckets];
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return PercentileFromBuckets(buckets, Count(), Min(), Max(), percentile);
}

HistogramSnapshot Histogram::ConsistentSnapshot() const {
  HistogramSnapshot hs;
  // Seqlock-style retry: a capture bracketed by two equal count reads saw
  // no Record complete inside it, so the only tear left is a Record that
  // bumped count_ but not yet sum_ (or a bucket but not yet count_) —
  // Record's fields are independent relaxed adds — at most one per
  // recording thread. Giving up after a fixed number of attempts would
  // keep an unbracketed capture, whose skew grows with however long this
  // thread was preempted between the sum and count reads. A capture is a
  // few dozen loads, so it only keeps failing while Records complete
  // back to back faster than that; yield so a descheduled recorder can
  // finish its Record before the next attempt.
  for (;;) {
    const uint64_t count_before = count_.load(std::memory_order_acquire);
    hs.sum = sum_.load(std::memory_order_relaxed);
    hs.min = Min();
    hs.max = Max();
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      hs.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    hs.count = count_.load(std::memory_order_acquire);
    if (hs.count == count_before) break;
    std::this_thread::yield();
  }
  hs.p50 = PercentileFromBuckets(hs.buckets.data(), hs.count, hs.min, hs.max,
                                 50.0);
  hs.p95 = PercentileFromBuckets(hs.buckets.data(), hs.count, hs.min, hs.max,
                                 95.0);
  hs.p99 = PercentileFromBuckets(hs.buckets.data(), hs.count, hs.min, hs.max,
                                 99.0);
  return hs;
}

MetricsSnapshot Snapshot() { return MetricsRegistry::Instance().Snapshot(); }

namespace {

void AppendJsonKey(std::string* out, const std::string& name, bool* first) {
  if (!*first) out->append(",");
  *first = false;
  out->append("\"");
  // Metric names are dotted identifiers — no escaping needed, but a
  // hostile name must not break the document.
  for (const char c : name) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->append("\":");
}

}  // namespace

std::string SnapshotJson() {
  const MetricsSnapshot snapshot = Snapshot();
  std::string json = "{\"counters\":{";
  bool first = true;
  for (const CounterSnapshot& counter : snapshot.counters) {
    AppendJsonKey(&json, counter.name, &first);
    json.append(std::to_string(counter.value));
  }
  json.append("},\"gauges\":{");
  first = true;
  for (const GaugeSnapshot& gauge : snapshot.gauges) {
    AppendJsonKey(&json, gauge.name, &first);
    json.append(std::to_string(gauge.value));
  }
  json.append("},\"histograms\":{");
  first = true;
  for (const HistogramSnapshot& histogram : snapshot.histograms) {
    AppendJsonKey(&json, histogram.name, &first);
    json.append("{\"count\":" + std::to_string(histogram.count) +
                ",\"sum\":" + std::to_string(histogram.sum) +
                ",\"min\":" + std::to_string(histogram.min) +
                ",\"max\":" + std::to_string(histogram.max) +
                ",\"p50\":" + std::to_string(histogram.p50) +
                ",\"p95\":" + std::to_string(histogram.p95) +
                ",\"p99\":" + std::to_string(histogram.p99) + "}");
  }
  json.append("}}");
  return json;
}

void ResetAllMetrics() { MetricsRegistry::Instance().ResetAll(); }

std::vector<std::string> ListMetricNames() {
  return MetricsRegistry::Instance().List();
}

}  // namespace metrics
}  // namespace randrecon
