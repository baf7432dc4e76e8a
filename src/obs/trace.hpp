// Span-based tracing for the compilation pipeline and runtime.
//
// A Tracer records a tree of named, timed spans (parse, sema, each SAFARA
// feedback iteration, codegen, regalloc, ...) with arbitrary JSON-valued
// attributes. Two export formats:
//   * chrome_trace(): the Chrome trace-event JSON format, loadable in
//     chrome://tracing or https://ui.perfetto.dev (complete "X" events);
//   * time_report(): an LLVM `--time-passes`-style text table aggregating
//     wall time per span name.
//
// Every entry point is null-safe through ScopedSpan so call sites can thread
// a `Tracer*` that is null by default: when no collector is attached the
// instrumentation reduces to a pointer test.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace safara::obs {

struct TraceSpan {
  std::string name;
  std::string category;
  std::int64_t start_us = 0;  // microseconds since the tracer's epoch
  std::int64_t dur_us = -1;   // -1 while the span is still open
  int parent = -1;            // index into Tracer::spans(); -1 for roots
  int depth = 0;              // root spans are depth 0
  std::vector<std::pair<std::string, json::Value>> args;

  bool open() const { return dur_us < 0; }
};

/// One Perfetto counter-track sample (`"ph": "C"`). The simulator emits
/// these for per-SM occupancy timelines; `ts` is virtual time (cycles), kept
/// on its own pid so viewers do not interleave it with wall-clock spans.
struct CounterEvent {
  std::string name;   // track name, e.g. "sm0.active_warps"
  std::int64_t ts = 0;
  double value = 0.0;
  int pid = 2;
  int tid = 1;
};

class Tracer {
 public:
  using SpanId = int;
  static constexpr SpanId kNoSpan = -1;

  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a span nested under the currently open span (if any).
  SpanId begin_span(std::string name, std::string category = "pass");
  /// Closes `id` and any still-open descendants (in LIFO order).
  void end_span(SpanId id);
  /// Attaches an attribute; later writes to the same key overwrite.
  void set_arg(SpanId id, std::string_view key, json::Value value);

  /// Appends one counter-track sample (not nested in the span tree).
  void add_counter(std::string name, std::int64_t ts, double value, int pid = 2,
                   int tid = 1);

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<CounterEvent>& counters() const { return counters_; }
  bool empty() const { return spans_.empty() && counters_.empty(); }

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} — one complete ("X")
  /// event per closed span (still-open spans are closed at export time),
  /// followed by one "C" event per counter sample.
  json::Value chrome_trace() const;

  /// Aggregated wall-time table per span name, largest first.
  std::string time_report() const;

 private:
  /// Microseconds since this tracer's epoch — the timestamp base of every
  /// span.
  std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceSpan> spans_;
  std::vector<CounterEvent> counters_;
  std::vector<SpanId> stack_;
};

/// RAII span that tolerates a null tracer (the disabled-observability path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string category = "pass")
      : tracer_(tracer) {
    if (tracer_) id_ = tracer_->begin_span(std::move(name), std::move(category));
  }
  ~ScopedSpan() {
    if (tracer_ && id_ != Tracer::kNoSpan) tracer_->end_span(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_arg(std::string_view key, json::Value value) {
    if (tracer_ && id_ != Tracer::kNoSpan) tracer_->set_arg(id_, key, std::move(value));
  }
  Tracer::SpanId id() const { return id_; }

 private:
  Tracer* tracer_;
  Tracer::SpanId id_ = Tracer::kNoSpan;
};

}  // namespace safara::obs
