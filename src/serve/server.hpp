// The synthesis service daemon core: a Unix-domain-socket server that
// executes flow requests on the shared util::ThreadPool, in front of the
// tiered synthesis cache (in-memory minimalist::SynthCache backed by an
// optional serve::DiskCache).
//
// Concurrency model: one lightweight reader thread per connection parses
// newline-delimited requests; cheap ops (ping/stats/metrics/trace/
// shutdown) are answered inline, synthesis ops are admitted into a
// bounded in-flight set and executed on the pool.  When the set is full the server sheds
// load with an immediate "overloaded" reply instead of queueing without
// bound.  Replies are written per-connection under a write mutex in
// completion order (each carries the request id).
//
// Idempotent retries: a synthesis request that carries an id is
// remembered in a bounded dedupe table.  A duplicate id — a client
// retrying after a timeout or a dropped connection — is answered from
// the table (or attached to the in-flight original) instead of being
// re-executed, so retries always observe the payload the first
// execution produced.
//
// Shutdown is graceful: stop() (async-signal-safe; the bb-served signal
// handler calls it directly) makes the accept loop close the listener,
// connection readers stop accepting new requests, in-flight work drains
// through the pool, replies are flushed, and run() returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/minimalist/cache.hpp"
#include "src/serve/disk_cache.hpp"

namespace bb::serve {

struct ServerOptions {
  std::string socket_path;
  /// Worker threads executing synthesis requests; 0 = one per hardware
  /// thread (BB_JOBS honored via util::ThreadPool::recommended_jobs()).
  int jobs = 0;
  /// Maximum synthesis requests in flight (queued + running) before the
  /// server sheds load with "overloaded" replies.
  int max_inflight = 64;
  /// Persistent cache directory; empty = memory tier only.  (bb-served
  /// defaults this from BB_CACHE_DIR.)
  std::string cache_dir;
  std::uint64_t cache_max_bytes = kDefaultCacheMaxBytes;
  /// Work-budget deadline applied to requests that do not carry their
  /// own (0 = the BB_WORK_BUDGET environment variable, else unlimited;
  /// flow::effective_work_budget).
  long long default_work_budget = 0;
  /// In-memory tier entry cap (SynthCache::set_max_entries).
  std::size_t memory_cache_entries = minimalist::SynthCache::kDefaultMaxEntries;
  /// Slow-trickle guard: a connection holding an incomplete request
  /// line longer than this is answered with a structured bad_request
  /// and closed, instead of pinning a reader thread forever
  /// (0 = no deadline).
  int line_timeout_ms = 30000;
  /// JSONL operational event log: one per-request completion record per
  /// line.  Empty = no log.  (bb-served defaults this from BB_LOG.)
  std::string log_path;
  /// Slow-request threshold in milliseconds: a request at least this
  /// slow gets its spans attached to its event-log record as an
  /// exemplar.  Negative = off.  (bb-served defaults from BB_SLOW_MS.)
  int slow_ms = -1;
  /// Keep the span tracer enabled for the life of the server so the
  /// `trace` op always has live data (a tracer someone else already
  /// enabled is left alone and left running).
  bool live_trace = true;
  /// Per-thread span-ring capacity in events, applied before enabling
  /// the tracer (clamped by obs::Tracer; see DESIGN.md §16).
  std::size_t span_ring = 16384;
  /// Root directory for incremental-build projects (src/incr); each
  /// request's "project" name becomes a subdirectory holding that
  /// project's one file, manifest.bbpm.  Empty = the
  /// synthesize_incremental op is disabled.  (bb-served defaults this
  /// from BB_PROJECT_DIR.)
  std::string project_dir;
};

struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;       ///< requests parsed (any op)
  std::uint64_t completed = 0;      ///< synthesis requests answered "ok"
  std::uint64_t errors = 0;         ///< synthesis requests answered "error"
  std::uint64_t bad_requests = 0;   ///< unparseable / unsupported requests
  std::uint64_t overloaded = 0;     ///< requests shed by admission control
  std::uint64_t deduped = 0;        ///< duplicate ids answered from the
                                    ///< idempotency table (client retries)
  std::uint64_t line_timeouts = 0;  ///< slow-trickle connections closed
};

class Server {
 public:
  /// Binds and listens on options.socket_path (an existing socket file
  /// is replaced).  Throws std::runtime_error on bind failure.
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves until stop() is called (or a "shutdown" request arrives),
  /// then drains in-flight work and returns.
  void run();

  /// Requests shutdown.  Only touches an atomic flag, so it is safe to
  /// call from a signal handler; run() notices within its poll interval.
  void stop() noexcept;

  bool stopping() const noexcept;

  const ServerOptions& options() const;

  ServerStats stats() const;
  /// Stats + cache tiers as a deterministic JSON object fragment (the
  /// "stats" op reply body).
  std::string stats_json() const;

  minimalist::SynthCache& cache();
  DiskCache* disk_cache();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bb::serve
