// In-memory span recorder for the traced run.
//
// A span is one call into a library layer, timed from the benchmark's side:
// name, start, end, the span that caused it and a request id. Spans are kept
// in memory and written out when the run ends. A layer's self time is its
// span's duration minus the part of that interval its child spans cover;
// time of the measured phase that no root span covers is reported as its own
// `unattributed` row. With tracing off a Span costs one branch.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace pb {

struct SpanRecord {
  const char* name;  // string literal: spans name layers, not data
  Clock::time_point start, end;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
};

struct LayerTotals {
  std::uint64_t calls = 0;
  double total_ms = 0;
  double self_ms = 0;
};

class Tracer {
 public:
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Record a finished span. Returns its id (0 when tracing is off).
  std::uint32_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint32_t parent,
                       std::uint64_t request);
  std::uint32_t next_id();

  /// Mark the measured phase the unattributed row is computed against.
  void phase(Clock::time_point start, Clock::time_point end) {
    phase_start_ = start;
    phase_end_ = end;
  }

  /// Per-name totals (self time excludes child spans).
  [[nodiscard]] LayerTotals totals(const std::string& name) const;
  /// Durations (ms) of every span with this name, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Milliseconds of the measured phase covered by no root span.
  [[nodiscard]] double unattributed_ms() const;
  [[nodiscard]] double phase_ms() const { return ms_between(phase_start_, phase_end_); }

  /// Estimated share of the measured phase spent recording spans: the
  /// recorder's calibrated per-span cost times the spans recorded inside
  /// the phase.
  [[nodiscard]] double overhead_pct() const;

  /// Print the per-layer table (with the unattributed row) to stderr.
  void print_table() const;
  /// Write every span as JSON lines to `path`.
  void write(const std::string& path) const;

 private:
  friend class Span;
  [[nodiscard]] std::vector<LayerTotals> aggregate_(std::vector<std::string>* names) const;

  bool enabled_ = false;
  mutable std::mutex mu_;  // guards spans_ and next_id_
  std::vector<SpanRecord> spans_;
  std::uint32_t next_id_ = 0;
  Clock::time_point phase_start_{}, phase_end_{};
};

/// The process-wide recorder every workload writes into.
Tracer& tracer();

/// RAII span around one layer call. Nested Spans on one thread become
/// parent and child.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t request_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  Clock::time_point start_{};
};

}  // namespace pb
