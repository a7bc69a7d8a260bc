#include "instrument.h"

#include <chrono>
#include <cstdlib>
#include <fstream>

namespace perfbench {

using randrecon::Result;
using randrecon::Status;
using randrecon::trace::TraceSpan;

Result<size_t> TimedRecordSource::NextChunk(randrecon::linalg::Matrix* buffer) {
  TraceSpan span(span_name_);
  Result<size_t> rows = inner_->NextChunk(buffer);
  if (rows.ok()) tally_->rows_served += rows.value();
  return rows;
}

Result<size_t> TimedRecordSource::NextBlockColumns(std::vector<const double*>* columns) {
  TraceSpan span(span_name_);
  Result<size_t> rows = inner_columnar_->NextBlockColumns(columns);
  if (rows.ok()) tally_->rows_served += rows.value();
  return rows;
}

double Capture::Total(const char* name) const {
  uint64_t nanos = 0;
  for (const auto& span : spans_) {
    if (span.name == name) nanos += span.duration_nanos;
  }
  return nanos * 1e-9;
}

bool Capture::HasAncestor(size_t index, const char* name) const {
  for (int parent = spans_[index].parent; parent >= 0; parent = spans_[parent].parent) {
    if (spans_[parent].name == name) return true;
  }
  return false;
}

double Capture::SelfTotal(const char* name, const std::vector<const char*>& children) const {
  double covered = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    for (const char* child : children) {
      if (spans_[i].name == child && HasAncestor(i, name)) {
        covered += spans_[i].duration_nanos * 1e-9;
      }
    }
  }
  return Total(name) - covered;
}

double Capture::TotalWithin(const char* name, uint64_t begin_ns, uint64_t end_ns) const {
  uint64_t nanos = 0;
  for (const auto& span : spans_) {
    if (span.name == name && span.start_nanos >= begin_ns && span.start_nanos < end_ns) {
      nanos += span.duration_nanos;
    }
  }
  return nanos * 1e-9;
}

uint64_t ReadAnonRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 8, "RssAnon:") == 0) {
      return std::strtoull(line.c_str() + 8, nullptr, 10);
    }
  }
  return 0;
}

AnonRssSampler::AnonRssSampler() {
  peak_kib_ = ReadAnonRssKib();
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      const uint64_t kib = ReadAnonRssKib();
      if (kib > peak_kib_.load()) peak_kib_ = kib;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
}

AnonRssSampler::~AnonRssSampler() { Stop(); }

double AnonRssSampler::Stop() {
  if (thread_.joinable()) {
    stop_ = true;
    thread_.join();
    const uint64_t kib = ReadAnonRssKib();
    if (kib > peak_kib_.load()) peak_kib_ = kib;
  }
  return peak_kib_.load() / 1024.0;
}

uint64_t CounterValue(const randrecon::metrics::MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

}  // namespace perfbench
