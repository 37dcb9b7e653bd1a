// Process-level wiring for the observability subsystem: one RAII object
// that turns the tracer on, hooks the thread pool, and writes the trace
// and metrics artifacts when it goes out of scope.
//
// Tools construct a Session near the top of main(), from the paths
// their command line resolved (tools::Cli::observability(): --trace and
// --metrics, with the BB_TRACE/BB_METRICS fallbacks):
//
//   obs::Session session(cli.trace_path(), cli.metrics_path());
//
// Empty paths disable the corresponding artifact.  Library code never
// opens a Session; the program that owns main() does.  Sessions still
// nest: only the session that actually enabled tracing writes and
// disables it, so an inner Session is inert when an outer one already
// owns the trace.
#pragma once

#include <string>

namespace bb::obs {

/// Registers the util::ThreadPool task observer that feeds the pool.*
/// metrics and per-task trace spans.  Idempotent.
void install_thread_pool_instrumentation();

class Session {
 public:
  /// Enables tracing when `trace_path` is non-empty and no other session
  /// owns the trace.  `metrics_path` selects where the metrics snapshot
  /// goes at destruction (empty = nowhere).
  Session(std::string trace_path, std::string metrics_path);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// True when this session enabled tracing (and will write the trace).
  bool owns_trace() const { return owns_trace_; }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  bool owns_trace_ = false;
};

}  // namespace bb::obs
