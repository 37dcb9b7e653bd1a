#include "src/obs/session.hpp"

#include <cstdio>
#include <exception>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/io.hpp"
#include "src/util/thread_pool.hpp"

namespace bb::obs {

namespace {

void pool_task_observer(const util::ThreadPool::TaskStats& stats) {
  Registry& registry = Registry::global();
  static Counter& tasks = registry.counter("pool.tasks");
  static Histogram& wait_us = registry.histogram("pool.queue_wait_us");
  static Histogram& run_us = registry.histogram("pool.run_us");
  const double waited =
      std::chrono::duration<double, std::micro>(stats.run_start -
                                                stats.enqueued)
          .count();
  const double ran = std::chrono::duration<double, std::micro>(
                         stats.run_end - stats.run_start)
                         .count();
  tasks.add();
  wait_us.record(waited <= 0 ? 0 : static_cast<std::uint64_t>(waited));
  run_us.record(ran <= 0 ? 0 : static_cast<std::uint64_t>(ran));
  if (tracing_enabled()) {
    Tracer::instance().record(
        "pool.task", kCatPool, stats.run_start, stats.run_end,
        "\"queue_wait_us\":" + std::to_string(static_cast<std::uint64_t>(
                                   waited <= 0 ? 0 : waited)));
  }
}

}  // namespace

void install_thread_pool_instrumentation() {
  util::ThreadPool::set_task_observer(&pool_task_observer);
}

Session::Session(std::string trace_path, std::string metrics_path)
    : trace_path_(std::move(trace_path)),
      metrics_path_(std::move(metrics_path)) {
  install_thread_pool_instrumentation();
  if (!trace_path_.empty() && !tracing_enabled()) {
    Tracer::instance().enable();
    owns_trace_ = true;
  }
}

Session::~Session() {
  // Artifact writes must not throw out of a destructor; a failed write
  // is reported and swallowed (the run's primary outputs still matter).
  if (owns_trace_) {
    Tracer::instance().disable();
    try {
      Tracer::instance().write(trace_path_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "obs: cannot write trace '%s': %s\n",
                   trace_path_.c_str(), e.what());
    }
  }
  if (!metrics_path_.empty()) {
    try {
      util::write_file_atomic(metrics_path_,
                              Registry::global().snapshot_json() + "\n");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "obs: cannot write metrics '%s': %s\n",
                   metrics_path_.c_str(), e.what());
    }
  }
}

}  // namespace bb::obs
