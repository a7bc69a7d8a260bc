// Tracing: RAII scoped timers that record into per-thread buffers and
// flatten to a deterministic parent/child span tree, plus the clock
// abstraction every timing primitive in the repo (Stopwatch included)
// reads.
//
// A TraceSpan brackets one stage of work ("attack.pass1_scatter", one
// pipeline job, one recovery pass). Construction stamps the start,
// destruction the duration — so early `Status` returns and exceptions
// close spans correctly by scope exit. Nesting is tracked with a
// per-thread open-span stack: a span's parent is whatever span was
// open on the same thread when it started, giving a forest per thread.
//
// Cost discipline: tracing is OFF by default. A disarmed TraceSpan with
// no histogram attached is one relaxed atomic load and a branch — the
// failpoint discipline — and reads no clock at all. Spans buffer only
// between StartTracing() and StopTracing(); a span may ALSO feed a
// metrics::Histogram (latency percentiles), which records whether or
// not tracing is on. Span capture never allocates under a lock on the
// hot path: each thread appends to its own buffer.
//
// Clock: every timestamp comes from trace::NowNanos(), which reads an
// injectable process-global clock (default: steady_clock). Tests
// install a manually-advanced fake via FakeClockGuard, so latency
// histograms and span durations are deterministic with no real sleeps
// (the Stopwatch satellite of the same contract: common/stopwatch.h is
// a thin wrapper over this clock).
//
// Determinism contract: tracing observes, it never perturbs — no
// instrumented path branches on trace state, so numerics are bitwise
// identical with tracing on or off.

#ifndef RANDRECON_COMMON_TRACE_H_
#define RANDRECON_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace randrecon {
namespace trace {

/// Nanoseconds from the process-global clock: steady_clock normally, a
/// FakeClockGuard's manual counter under test. Monotonic non-decreasing
/// in both modes.
uint64_t NowNanos();

/// Installs a manually-advanced fake clock for the guard's lifetime
/// (restores the previous clock on destruction). The fake starts at
/// `start_nanos` and moves only via Advance/Set — so any latency
/// recorded under it is an exact, test-pinnable number. Guards do not
/// nest per thread-safety simplicity: one at a time, test-only.
class FakeClockGuard {
 public:
  explicit FakeClockGuard(uint64_t start_nanos = 0);
  ~FakeClockGuard();
  FakeClockGuard(const FakeClockGuard&) = delete;
  FakeClockGuard& operator=(const FakeClockGuard&) = delete;

  void Advance(uint64_t nanos);
  /// Jumps to an absolute reading (must not move backwards).
  void Set(uint64_t nanos);
};

/// One completed span, as flattened by StopTracing().
struct Span {
  /// The literal passed to TraceSpan.
  std::string name;
  uint64_t start_nanos = 0;
  uint64_t duration_nanos = 0;
  /// Index (into the flattened vector) of the enclosing span on the
  /// same thread, -1 for a root. Always < this span's own index, so the
  /// flat array IS a topologically-ordered tree.
  int parent = -1;
  /// Dense capture-local thread ordinal (0 = the thread that called
  /// StartTracing() first records, then by first-span order).
  int thread = 0;
};

/// True while a StartTracing()/StopTracing() capture is open — the one
/// relaxed load a disarmed TraceSpan costs.
bool TracingEnabled();

/// Opens a capture: clears every thread's span buffer and enables
/// recording. Captures are process-global and do not nest.
void StartTracing();

/// Closes the capture and returns every completed span, flattened
/// deterministically: threads ordered by first-span start (ties by
/// registration), spans within a thread in start order, parents before
/// children. Spans still open on other threads at stop time are
/// dropped (a capture should bracket quiesced work).
std::vector<Span> StopTracing();

/// `spans` rendered as a JSON array (docs/REPORT_SCHEMA.md "spans"):
///   [{"name":"attack.pass1_scatter","start_ns":0,"duration_ns":5,
///     "parent":-1,"thread":0}, ...]
std::string SpanTreeJson(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Recent-capture ring — the substrate of the stats server's /tracez.
// A daemon that traces a unit of work (e.g. one scheduler cycle) pushes
// the finished span tree here; the ring keeps the newest
// kRecentCaptureRing captures so a live scrape can always show "what
// did the last few cycles do" without unbounded memory. Mutex-guarded:
// pushes happen per cycle (not per span), never on a hot path.
// ---------------------------------------------------------------------------

constexpr size_t kRecentCaptureRing = 16;

/// One finished capture retained for /tracez.
struct RecentCapture {
  uint64_t id = 0;  ///< Monotone push sequence (1-based, process-wide).
  std::string label;
  uint64_t captured_nanos = 0;  ///< NowNanos() at push.
  std::vector<Span> spans;
};

/// Retains a finished capture (typically the StopTracing() result of one
/// work unit), evicting the oldest beyond kRecentCaptureRing.
void PushRecentCapture(std::string label, std::vector<Span> spans);

/// Newest-first retained captures; `max` = 0 returns all retained.
std::vector<RecentCapture> RecentCaptures(size_t max = 0);

/// Empties the ring (tests).
void ClearRecentCaptures();

/// RAII scoped timer. `name` must outlive the span (string literals).
/// When `latency` is non-null the span's duration is Record()ed into it
/// on destruction — tracing on or off — which is how the per-stage
/// latency histograms are fed.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name,
                     metrics::Histogram* latency = nullptr);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Closes the span now instead of at scope exit (e.g. to exclude
  /// result assembly from a measured stage). Idempotent; the destructor
  /// becomes a no-op afterwards.
  void Finish();

 private:
  const char* name_;
  metrics::Histogram* latency_;
  uint64_t start_nanos_ = 0;
  /// Buffer slot this span occupies on its thread, -1 when not
  /// capturing (disarmed, or opened before StartTracing()).
  int slot_ = -1;
  /// The capture this span recorded into — a stale epoch at destruction
  /// means the capture ended (or a new one began) mid-span and the slot
  /// must not be touched.
  uint64_t epoch_ = 0;
  bool timed_ = false;
};

}  // namespace trace
}  // namespace randrecon

#endif  // RANDRECON_COMMON_TRACE_H_
