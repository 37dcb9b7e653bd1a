// Low-overhead span tracer emitting Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing).
//
// Spans are RAII scopes recorded onto thread-local ring buffers; the
// flush merges every thread's ring, sorts by start time, and renders one
// "ph":"X" complete event per span.  When tracing is disabled the Span
// constructor is a single relaxed atomic load and a couple of pointer
// stores — no clock read, no allocation — so instrumentation can stay in
// every hot path permanently.  A span constructed with an accumulate
// pointer additionally adds its elapsed milliseconds to that double on
// completion regardless of whether tracing is on; the flow uses this to
// derive StageTimings directly from its spans.
//
// Ring buffers are bounded (ring_capacity() events per thread); once a
// ring wraps, the oldest events are overwritten and the flush reports how
// many were dropped.  Buffers outlive their threads (the tracer keeps
// them alive until the next flush), so pool workers can exit freely.
//
// Request-scoped tracing: a thread carries an ambient trace context (a
// trace id string installed with TraceContextScope).  Every span recorded
// while the scope is alive is tagged with that id, so all the work done
// on behalf of one service request — dispatch, cache lookups, the flow
// stages, per-controller synthesis on pool workers — shares its id and
// can be pulled out of the ring as one trace.  Propagation across
// threads is explicit and by value: capture current_trace_id() where the
// task is submitted, install a scope inside the worker.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace bb::obs {

namespace internal {
extern std::atomic<bool> g_tracing;
}  // namespace internal

/// True while a trace is being collected.  One relaxed atomic load.
inline bool tracing_enabled() {
  return internal::g_tracing.load(std::memory_order_relaxed);
}

// ---- ambient trace context ----

/// The trace id installed on this thread by the innermost live
/// TraceContextScope (empty when none).  Spans recorded on this thread
/// carry it; capture it here when handing work to another thread.
const std::string& current_trace_id();

/// RAII scope installing `trace_id` as the thread's ambient trace
/// context; the previous value is restored on destruction, so nested
/// scopes (a request executing inside an instrumented batch) behave like
/// a stack.
class TraceContextScope {
 public:
  explicit TraceContextScope(std::string trace_id);
  ~TraceContextScope();

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  std::string previous_;
};

/// Span categories (the "cat" field trace viewers group/filter by).
inline constexpr const char* kCatFlow = "flow";
inline constexpr const char* kCatSynth = "synth";
inline constexpr const char* kCatLogic = "logic";
inline constexpr const char* kCatSim = "sim";
inline constexpr const char* kCatPool = "pool";
inline constexpr const char* kCatFault = "fault";
inline constexpr const char* kCatIncr = "incr";
inline constexpr const char* kCatVerify = "verify";

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Starts collecting (clears previous events, re-arms the epoch).
  /// No-op when already enabled.
  void enable();
  /// Stops collecting.  Events already recorded stay until flushed.
  void disable();
  bool enabled() const { return tracing_enabled(); }

  /// Drains every thread's ring and renders the Chrome trace-event
  /// document: {"schema_version":N,"displayTimeUnit":"ms",
  /// "dropped_events":N,"traceEvents":[...]}.
  std::string flush_json();

  /// Live, non-draining view of the rings for the service tier's
  /// `trace` op: copies the recorded spans (events stay in place for
  /// the next query or the final flush), keeps only those whose trace
  /// id equals `trace_id` when it is non-empty, and renders the newest
  /// `last` spans (0 = all) as the same Chrome trace-event document.
  std::string collect_json(std::size_t last = 0,
                           std::string_view trace_id = {});

  /// Per-thread ring capacity (events), clamped to [1024, 1M].  Applies
  /// to how much further any ring may grow — rings never shrink, a ring
  /// already past a lowered cap simply wraps at its current size.  The
  /// service tier sizes its span ring with this before enabling tracing
  /// (DESIGN.md §16 discusses the sizing tradeoff).
  static void set_ring_capacity(std::size_t events);
  static std::size_t ring_capacity();

  /// flush_json() written atomically to `path`.
  void write(const std::string& path);

  /// Records a completed span with explicit endpoints (used by observers
  /// that measure outside a scope, e.g. the thread-pool task hook).
  /// `args_json` is a pre-rendered JSON object fragment or empty.
  void record(const char* name, const char* cat, Clock::time_point start,
              Clock::time_point end, std::string args_json);

  /// Microseconds from the trace epoch to `tp`.
  double to_us(Clock::time_point tp) const;

  static Tracer& instance();

 private:
  Tracer() = default;
};

/// An RAII traced scope.  `name` and `cat` must be string literals (they
/// are stored as pointers).  When `accumulate_ms` is non-null the span
/// always measures time and adds its elapsed milliseconds to the target
/// on completion, even with tracing disabled.
class Span {
 public:
  explicit Span(const char* name, const char* cat = kCatFlow,
                double* accumulate_ms = nullptr);
  ~Span() { finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when this span is recording a trace event (tracing was enabled
  /// at construction).
  bool recording() const { return tracing_; }

  /// Attaches a key/value pair to the trace event (up to four).  No-op —
  /// and allocation-free — unless the span is recording.
  void arg(std::string_view key, std::string_view value);
  /// Integer convenience overload.
  void arg(std::string_view key, std::uint64_t value);

  /// Ends the span now: records the trace event, updates the accumulate
  /// target, and returns the elapsed milliseconds (0.0 when the span was
  /// not timing).  Idempotent; the destructor calls it.
  double finish();

 private:
  const char* name_;
  const char* cat_;
  double* accumulate_ms_;
  Tracer::Clock::time_point start_;
  bool timing_ = false;   ///< clock was read at construction
  bool tracing_ = false;  ///< event will be recorded at finish
  bool done_ = false;
  std::string args_json_;  ///< accumulated fragment: "k":"v","k2":"v2"
};

}  // namespace bb::obs
