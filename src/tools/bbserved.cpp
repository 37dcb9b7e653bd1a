// bb-served — the synthesis service daemon.
//
// Listens on a Unix-domain socket for newline-delimited JSON requests
// (src/serve/protocol.hpp) and executes them on a shared thread pool in
// front of the tiered synthesis cache.  With --cache-dir (or
// BB_CACHE_DIR) the cache gains a persistent on-disk second tier that
// survives restarts and is shared between processes.
//
//   bb-served --socket /tmp/bb.sock [--cache-dir DIR]
//
// Options:
//   --socket PATH       Unix-domain socket to listen on (required)
//   --jobs N            synthesis worker threads (default: BB_JOBS, then
//                       hardware concurrency)
//   --max-inflight N    admission cap before shedding load (default 64)
//   --cache-dir DIR     persistent cache directory (default: BB_CACHE_DIR;
//                       unset = memory tier only)
//   --cache-max-mb N    disk tier size cap (default: BB_CACHE_MAX_MB,
//                       then 256)
//   --memory-entries N  in-memory tier entry cap (default 65536)
//   --work-budget N     default per-request work budget (default:
//                       BB_WORK_BUDGET via the flow, 0 = unlimited)
//   --line-timeout-ms N slow-trickle guard: close connections holding an
//                       incomplete request line longer than this
//                       (default 30000, 0 = off)
//   --log FILE          JSONL operational event log: one completion
//                       record per request (BB_LOG env fallback)
//   --slow-ms N         attach a request's spans to its event-log record
//                       when it runs at least N ms (BB_SLOW_MS fallback;
//                       -1 = off, the default)
//   --span-ring N       per-thread span-ring capacity in events for the
//                       live `trace` op (default 16384)
//   --project-dir DIR   root directory for incremental-build projects
//                       (default: BB_PROJECT_DIR; unset = the
//                       synthesize_incremental op is disabled)
//   --no-live-trace     do not keep the span tracer enabled (the `trace`
//                       op then only sees spans from an explicit --trace
//                       session)
//   --trace FILE        Chrome trace-event JSON (BB_TRACE env fallback)
//   --metrics FILE      metrics snapshot JSON (BB_METRICS env fallback)
//
// Fault injection (debug/failpoint builds): BB_FAILPOINTS activates
// named failpoints (src/util/failpoint.hpp) and BB_CHAOS_SEED seeds
// their probabilistic actions; both are read at process start.
//
// SIGINT/SIGTERM (or a "shutdown" request) drain in-flight work, flush
// replies, and exit 0.
#include <csignal>
#include <iostream>
#include <limits>
#include <string>

#include "src/incr/build.hpp"
#include "src/obs/session.hpp"
#include "src/serve/server.hpp"
#include "src/tools/cli.hpp"

namespace {

bb::serve::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->stop();  // atomic flag only
}

}  // namespace

int main(int argc, char** argv) {
  bb::serve::ServerOptions options;
  std::uint64_t cache_max_mb = options.cache_max_bytes >> 20;
  bb::tools::Cli cli("bb-served", "", 0, 0);
  cli.text("--socket", "PATH", &options.socket_path)
      .integer("--jobs", 0, 4096, &options.jobs)
      .integer("--max-inflight", 1, 1000000, &options.max_inflight)
      .text("--cache-dir", "DIR", &options.cache_dir, "BB_CACHE_DIR")
      .integer("--cache-max-mb", 1, 1 << 20, &cache_max_mb, "BB_CACHE_MAX_MB")
      .integer("--memory-entries", 1, 100000000,
               &options.memory_cache_entries)
      .integer("--work-budget", 0, std::numeric_limits<long long>::max(),
               &options.default_work_budget)
      .integer("--line-timeout-ms", 0, 86400000, &options.line_timeout_ms)
      .text("--log", "FILE", &options.log_path, "BB_LOG")
      .integer("--slow-ms", -1, 86400000, &options.slow_ms, "BB_SLOW_MS")
      .integer("--span-ring", 1024, 1 << 20, &options.span_ring)
      .flag("--no-live-trace", &options.live_trace, false)
      .text("--project-dir", "DIR", &options.project_dir,
            bb::incr::kProjectDirEnv)
      .observability();
  cli.parse(argc, argv);
  if (options.socket_path.empty()) cli.fail("--socket is required");
  options.cache_max_bytes = cache_max_mb << 20;

  bb::obs::Session session(cli.trace_path(), cli.metrics_path());
  try {
    bb::serve::Server server(std::move(options));
    g_server = &server;
    struct sigaction sa {};
    sa.sa_handler = on_signal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    std::cerr << "bb-served: listening on " << server.options().socket_path
              << (server.disk_cache() != nullptr
                      ? " (cache-dir " + server.disk_cache()->root() + ")"
                      : std::string(" (memory cache only)"))
              << std::endl;
    server.run();

    const auto stats = server.stats();
    std::cerr << "bb-served: drained; " << stats.requests << " request(s), "
              << stats.completed << " completed, " << stats.errors
              << " error(s), " << stats.overloaded << " shed" << std::endl;
    g_server = nullptr;
  } catch (const std::exception& e) {
    std::cerr << "bb-served: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
