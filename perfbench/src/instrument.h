// What the benchmark wraps around the library's public interfaces so the
// traced mode can split a job by layer without adding a span under src/:
// a timing decorator for record sources, the span-tree
// arithmetic that turns one trace capture into per-layer times, and the
// process-level probes (anonymous RSS, counter deltas).
#ifndef PERFBENCH_INSTRUMENT_H_
#define PERFBENCH_INSTRUMENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "pipeline/record_source.h"

namespace perfbench {

/// Rows a decorated source served, across every sweep of one job.
struct SourceTally {
  uint64_t rows_served = 0;
};

/// Forwards every call to `inner`, bracketing each read in a span named
/// `span_name` (a string literal) and counting the rows served. The
/// columnar fast path is forwarded too, through this object, so the
/// pipeline takes exactly the path it takes on the bare source.
class TimedRecordSource final : public randrecon::pipeline::RecordSource,
                                public randrecon::pipeline::ColumnarBlockStream {
 public:
  TimedRecordSource(std::unique_ptr<randrecon::pipeline::RecordSource> inner,
                    const char* span_name, SourceTally* tally)
      : inner_(std::move(inner)),
        inner_columnar_(inner_->columnar_blocks()),
        span_name_(span_name),
        tally_(tally) {}

  size_t num_attributes() const override { return inner_->num_attributes(); }
  randrecon::Status Reset() override { return inner_->Reset(); }
  randrecon::Result<size_t> NextChunk(randrecon::linalg::Matrix* buffer) override;

  randrecon::pipeline::ColumnarBlockStream* columnar_blocks() override {
    return inner_columnar_ != nullptr ? this : nullptr;
  }
  randrecon::Status ResetBlocks() override { return inner_columnar_->ResetBlocks(); }
  randrecon::Result<size_t> NextBlockColumns(
      std::vector<const double*>* columns) override;

 private:
  std::unique_ptr<randrecon::pipeline::RecordSource> inner_;
  randrecon::pipeline::ColumnarBlockStream* inner_columnar_;
  const char* span_name_;
  SourceTally* tally_;
};

/// One finished trace capture with the queries the per-layer metrics need.
class Capture {
 public:
  explicit Capture(std::vector<randrecon::trace::Span> spans)
      : spans_(std::move(spans)) {}

  /// Summed duration (seconds) of every span named `name`.
  double Total(const char* name) const;
  /// Summed duration of spans named `name` minus the time their
  /// descendants named in `children` cover.
  double SelfTotal(const char* name, const std::vector<const char*>& children) const;
  /// Summed duration of spans named `name` that start inside
  /// [begin_ns, end_ns).
  double TotalWithin(const char* name, uint64_t begin_ns, uint64_t end_ns) const;

 private:
  bool HasAncestor(size_t index, const char* name) const;

  std::vector<randrecon::trace::Span> spans_;
};

/// Samples this process's anonymous resident memory (RssAnon, which
/// leaves out mmap'd store pages) on a background thread until Stop.
class AnonRssSampler {
 public:
  AnonRssSampler();
  ~AnonRssSampler();
  AnonRssSampler(const AnonRssSampler&) = delete;
  AnonRssSampler& operator=(const AnonRssSampler&) = delete;

  /// Stops sampling and returns the peak in MiB.
  double Stop();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> peak_kib_{0};
  std::thread thread_;
};

/// RssAnon of this process in KiB, 0 if /proc is unreadable.
uint64_t ReadAnonRssKib();

/// The value of counter `name` in `snapshot`, 0 when absent.
uint64_t CounterValue(const randrecon::metrics::MetricsSnapshot& snapshot,
                      const std::string& name);

/// Seconds on the library's trace clock.
inline double NowSeconds() { return randrecon::trace::NowNanos() * 1e-9; }

}  // namespace perfbench

#endif  // PERFBENCH_INSTRUMENT_H_
