#include "src/serve/server.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/balsa/compile.hpp"
#include "src/bm/parse.hpp"
#include "src/bm/validate.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/analyze.hpp"
#include "src/flow/flow.hpp"
#include "src/incr/build.hpp"
#include "src/lint/sarif.hpp"
#include "src/netlist/verilog.hpp"
#include "src/obs/eventlog.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/protocol.hpp"
#include "src/techmap/cells.hpp"
#include "src/util/failpoint.hpp"
#include "src/util/io.hpp"
#include "src/util/json.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/workbudget.hpp"

namespace bb::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One request line above this is hostile, not a workload.
constexpr std::size_t kMaxLineBytes = 8u << 20;

/// Poll interval: the latency bound on noticing stop().
constexpr int kPollMs = 100;

/// Replies remembered for idempotent retry, beyond which the oldest
/// completed ids are forgotten (a forgotten retry re-executes, which is
/// safe: synthesis is deterministic).
constexpr std::size_t kMaxDedupedReplies = 1024;

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions opts) : options(std::move(opts)) {
    if (!options.cache_dir.empty()) {
      disk = std::make_unique<DiskCache>(options.cache_dir,
                                         options.cache_max_bytes);
      cache.set_backing_store(disk.get());
    }
    cache.set_max_entries(options.memory_cache_entries);
    cache.set_library_version(techmap::CellLibrary::ams035().fingerprint());
    jobs = options.jobs > 0
               ? static_cast<std::size_t>(options.jobs)
               : util::ThreadPool::recommended_jobs();
    if (!options.log_path.empty()) {
      event_log = std::make_unique<obs::EventLog>(options.log_path);
    }
    if (options.live_trace) {
      obs::Tracer::set_ring_capacity(options.span_ring);
      if (!obs::tracing_enabled()) {
        obs::Tracer::instance().enable();
        owns_tracer = true;
      }
    }
    listen_and_bind();
    pool = std::make_unique<util::ThreadPool>(jobs);
  }

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (!options.socket_path.empty()) ::unlink(options.socket_path.c_str());
    if (owns_tracer) obs::Tracer::instance().disable();
  }

  // ---- state shared across connection threads ----
  ServerOptions options;
  std::size_t jobs = 1;
  minimalist::SynthCache cache;
  std::unique_ptr<DiskCache> disk;
  std::unique_ptr<util::ThreadPool> pool;
  int listen_fd = -1;
  std::atomic<bool> stop{false};
  std::atomic<int> inflight{0};
  std::unique_ptr<obs::EventLog> event_log;
  bool owns_tracer = false;
  /// Sequence behind server-minted trace ids ("srv-<seq>").
  std::atomic<std::uint64_t> trace_seq{0};

  /// Serializes incremental builds (manifest read-modify-write).
  std::mutex incr_mu;

  mutable std::mutex stats_mu;
  ServerStats stats;

  /// Per-connection state shared between the reader thread and the pool
  /// tasks answering its requests.
  struct Conn {
    int fd = -1;
    std::mutex write_mu;
    std::mutex mu;
    std::condition_variable cv;
    int outstanding = 0;
  };

  /// The idempotency table behind request-id dedupe.  `done` remembers
  /// the reply line of completed synthesis requests (bounded,
  /// oldest-forgotten); `pending` collects connections waiting on an
  /// id that is still executing, so a retry racing its original gets
  /// the original's reply instead of a second execution.
  struct DedupeTable {
    std::mutex mu;
    std::unordered_map<std::string, std::string> done;
    std::deque<std::string> done_order;
    std::unordered_map<std::string, std::vector<Conn*>> pending;
  };
  DedupeTable dedupe;

  void listen_and_bind() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options.socket_path.empty() ||
        options.socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("serve: socket path empty or longer than " +
                               std::to_string(sizeof(addr.sun_path) - 1) +
                               " bytes: '" + options.socket_path + "'");
    }
    std::memcpy(addr.sun_path, options.socket_path.c_str(),
                options.socket_path.size() + 1);
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) {
      throw std::runtime_error("serve: cannot create socket: " +
                               std::string(std::strerror(errno)));
    }
    ::unlink(options.socket_path.c_str());  // stale socket from a crash
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd, 64) != 0) {
      const std::string reason = std::strerror(errno);
      ::close(listen_fd);
      listen_fd = -1;
      throw std::runtime_error("serve: cannot listen on '" +
                               options.socket_path + "': " + reason);
    }
  }

  /// One increment, two sinks: the per-instance ServerStats snapshot
  /// (the "stats" op; tests assert exact per-server counts) and the
  /// process-wide registry counter (the "metrics" op / Prometheus).
  void bump(std::uint64_t ServerStats::* field, std::string_view counter) {
    {
      std::lock_guard<std::mutex> lock(stats_mu);
      stats.*field += 1;
    }
    obs::Registry::global().counter(counter).add();
  }

  /// Latency histogram for one op.  `op` comes from the validated op
  /// set, so the name space is bounded.
  static obs::Histogram& op_histogram(const std::string& op) {
    return obs::Registry::global().histogram("serve.op." + op + ".us");
  }

  /// Appends one completion record to the JSONL event log (no-op when
  /// logging is off).  A request at least `slow_ms` slow gets its spans
  /// attached as a Chrome-trace exemplar.
  void log_request(const Request& req, std::string_view outcome,
                   const std::string& cache, double total_ms) {
    if (event_log == nullptr) return;
    std::string f = "\"trace_id\":\"" + util::json_escape(req.trace_id) + "\"";
    if (!req.id.empty()) {
      f += ",\"id\":\"" + util::json_escape(req.id) + "\"";
    }
    f += ",\"op\":\"" + util::json_escape(req.op) + "\"";
    f += ",\"outcome\":\"";
    f += outcome;
    f += '"';
    if (!cache.empty()) f += ",\"cache\":\"" + cache + "\"";
    f += ",\"duration_us\":" +
         std::to_string(static_cast<std::uint64_t>(total_ms * 1000.0));
    if (options.slow_ms >= 0 &&
        total_ms >= static_cast<double>(options.slow_ms) &&
        !req.trace_id.empty()) {
      f += ",\"slow\":true,\"spans\":";
      f += obs::Tracer::instance().collect_json(0, req.trace_id);
    }
    event_log->log(f);
  }

  void write_reply(Conn& conn, const std::string& line) {
    std::lock_guard<std::mutex> lock(conn.write_mu);
    util::send_all(conn.fd, line + "\n");
  }

  /// Finishes one pool task's bookkeeping on `conn`: the reader thread
  /// destroys the Conn as soon as outstanding hits 0, so the cv must
  /// not be touched after the mutex is released.
  void release_outstanding(Conn& conn) {
    std::lock_guard<std::mutex> lock(conn.mu);
    --conn.outstanding;
    conn.cv.notify_all();
  }

  // ---- request execution (runs on pool workers) ----

  /// What a synthesis op produced; rendered into a reply only after the
  /// run time has been measured, so timings_ms.run covers the execution.
  struct Outcome {
    bool ok = false;
    std::string result_json;           ///< when ok
    std::string cache;                 ///< cache-tier summary for the log
    std::string stage, rule, message;  ///< when !ok
  };

  Outcome execute(const Request& req) {
    Outcome out;
    try {
      out.result_json =
          req.op == "synthesize"
              ? execute_synthesize(req, &out.cache)
              : req.op == "synthesize_bm"
                    ? execute_synthesize_bm(req, &out.cache)
                    : req.op == "synthesize_incremental"
                          ? execute_synthesize_incremental(req, &out.cache)
                          : execute_analyze(req);
      out.ok = true;
      bump(&ServerStats::completed, "serve.completed");
      return out;
    } catch (const flow::LintError& e) {
      out.stage = "lint";
      out.rule = "LINT";
      out.message = e.what();
    } catch (const flow::FlowError& e) {
      out.stage = std::string(flow_stage_name(e.stage()));
      out.rule = e.diagnostic().rule;
      out.message = e.what();
    } catch (const bm::BmsParseError& e) {
      out.stage = "parse";
      out.rule = "BMS";
      out.message = e.what();
    } catch (const util::WorkBudgetExceeded& e) {
      out.stage = "synthesis";
      out.rule = "FL002";
      out.message = e.what();
    } catch (const std::exception& e) {
      out.stage = "internal";
      out.rule = "EX";
      out.message = e.what();
    }
    bump(&ServerStats::errors, "serve.errors");
    return out;
  }

  /// The request's Balsa source: the named built-in design when it names
  /// one, the inline source otherwise.
  static std::string request_source(const Request& req) {
    if (req.design.empty()) return req.source;
    try {
      return designs::design(req.design).source;
    } catch (const std::out_of_range&) {
      throw std::runtime_error("unknown design '" + req.design + "'");
    }
  }

  std::string execute_synthesize(const Request& req, std::string* cache_tier) {
    const auto net = balsa::compile_source(request_source(req));
    const flow::FlowOptions options = apply_options(
        req.options, this->options.default_work_budget, &cache);
    const auto result = flow::synthesize_control(net, options);
    // Whole-request cache summary for the event log: a flow touches one
    // cache entry per controller, so "hit"/"miss" are the pure cases and
    // "partial" the mix; "none" means the flow had nothing to look up.
    const std::uint64_t hits =
        result.timings.cache_hits + result.timings.cache_disk_hits;
    *cache_tier = result.timings.cache_misses == 0
                      ? (hits > 0 ? "hit" : "none")
                      : (hits > 0 ? "partial" : "miss");

    util::JsonWriter w;
    w.begin_object();
    if (!req.design.empty()) w.member("design", req.design);
    w.member("controllers",
             static_cast<std::uint64_t>(result.controllers.size()));
    w.member("area", result.area);
    w.member("degraded", static_cast<std::uint64_t>(result.failures.size()));
    w.key("cache").begin_object();
    w.member("hits", result.timings.cache_hits);
    w.member("disk_hits", result.timings.cache_disk_hits);
    w.member("misses", result.timings.cache_misses);
    w.end_object();
    w.member("report", flow::report(result));
    if (req.options.verilog) {
      w.member("verilog", netlist::to_verilog(result.gates));
    }
    w.key("timings").raw(result.timings.to_json());
    w.end_object();
    return w.str();
  }

  std::string execute_synthesize_bm(const Request& req,
                                    std::string* cache_tier) {
    const bm::Spec spec = bm::parse_bms(req.bms);
    const auto check = bm::validate(spec);
    if (!check.ok) {
      throw flow::FlowError(flow::FlowStage::kBmCompile, "FL001", spec.name,
                            "BM validation failed: " + check.errors[0]);
    }
    const auto mode = req.mode == "area" ? minimalist::SynthMode::kArea
                                         : minimalist::SynthMode::kSpeed;
    const flow::FlowOptions fopts =
        apply_options(req.options, options.default_work_budget, &cache);
    std::optional<util::WorkBudget> budget;
    if (const std::uint64_t ops = flow::effective_work_budget(fopts)) {
      budget.emplace(ops);
    }
    minimalist::CacheTier tier = minimalist::CacheTier::kMiss;
    const bool use_cache = fopts.cache_instance != nullptr;
    const minimalist::SynthesizedController ctrl =
        use_cache ? minimalist::synthesize_cached(
                        spec, mode, *fopts.cache_instance,
                        budget ? &*budget : nullptr, &tier)
                  : minimalist::synthesize(spec, mode,
                                           budget ? &*budget : nullptr);

    const char* tier_name = tier == minimalist::CacheTier::kMemory ? "hit"
                            : tier == minimalist::CacheTier::kDisk ? "disk-hit"
                            : use_cache                            ? "miss"
                                                                   : "off";
    *cache_tier = tier_name;

    util::JsonWriter w;
    w.begin_object();
    w.member("name", ctrl.name);
    w.member("products", static_cast<std::uint64_t>(ctrl.num_products()));
    w.member("literals", static_cast<std::uint64_t>(ctrl.num_literals()));
    w.member("cache", tier_name);
    w.member("sol", ctrl.to_sol());
    w.end_object();
    return w.str();
  }

  std::string execute_synthesize_incremental(const Request& req,
                                             std::string* cache_tier) {
    if (options.project_dir.empty()) {
      throw std::runtime_error(
          "incremental builds are disabled (start bb-served with "
          "--project-dir or BB_PROJECT_DIR)");
    }
    const flow::FlowOptions fopts =
        apply_options(req.options, options.default_work_budget, &cache);
    // Builds serialize: a build is a read-modify-write of the project
    // manifest, and two concurrent builds of one project would race the
    // dirty-set computation.  One mutex across projects keeps it simple;
    // dirty-unit synthesis inside the build still fans out on the pool.
    incr::BuildResult result;
    {
      std::lock_guard<std::mutex> lock(incr_mu);
      result = incr::build(req.source,
                           options.project_dir + "/" + req.project, fopts);
    }
    *cache_tier = result.units_rebuilt == 0
                      ? "hit"
                      : (result.units_reused > 0 ? "partial" : "miss");

    util::JsonWriter w;
    w.begin_object();
    w.member("project", req.project);
    w.key("incremental").raw(result.to_json());
    w.member("report", result.report);
    if (req.options.verilog) w.member("verilog", result.verilog);
    w.end_object();
    return w.str();
  }

  std::string execute_analyze(const Request& req) {
    const auto net = balsa::compile_source(request_source(req));
    const flow::FlowOptions options = apply_options(
        req.options, this->options.default_work_budget, &cache);
    const flow::AnalyzeResult analyzed =
        flow::analyze_control(net, options, {}, !req.options.no_analyze);

    util::JsonWriter w;
    w.begin_object();
    if (!req.design.empty()) w.member("design", req.design);
    w.member("errors", static_cast<std::uint64_t>(
                           analyzed.report.count(lint::Severity::kError)));
    w.member("warnings", static_cast<std::uint64_t>(
                             analyzed.report.count(lint::Severity::kWarning)));
    w.key("skipped").begin_array();
    for (const std::string& s : analyzed.skipped) w.value(s);
    w.end_array();
    w.key("lint").raw(analyzed.report.to_json());
    if (req.options.sarif) {
      w.member("sarif", lint::to_sarif(analyzed.report, req.design));
    }
    w.end_object();
    return w.str();
  }

  // ---- per-connection reader ----

  void handle_line(Conn& conn, const std::string& line) {
    bump(&ServerStats::requests, "serve.requests");

    Request req;
    std::string error;
    if (!parse_request(line, &req, &error)) {
      bump(&ServerStats::bad_requests, "serve.bad_requests");
      log_request(req, "bad_request", {}, 0.0);
      write_reply(conn, reply_bad_request({req.id, req.trace_id}, error));
      return;
    }
    // Every request carries a trace context: the client's id when
    // supplied, a server-minted one otherwise.  The reply echoes it.
    if (req.trace_id.empty()) {
      req.trace_id =
          "srv-" + std::to_string(
                       trace_seq.fetch_add(1, std::memory_order_relaxed) + 1);
    }
    const ReplyIds ids{req.id, req.trace_id};

    // Cheap ops are answered inline on the reader thread, through the
    // same trace-context / per-op-histogram / event-log path as the
    // pool-executed synthesis ops.
    if (req.op == "ping" || req.op == "stats" || req.op == "metrics" ||
        req.op == "trace" || req.op == "shutdown") {
      obs::TraceContextScope trace_scope(req.trace_id);
      const auto inline_start = Clock::now();
      const auto body = [&](util::JsonWriter& w) {
        if (req.op == "stats") {
          w.key("stats").raw(stats_json());
        } else if (req.op == "metrics") {
          // One snapshot feeds both renderings so they cannot disagree.
          const obs::RegistrySnapshot snap =
              obs::Registry::global().snapshot();
          if (req.format != "prometheus") {
            w.key("metrics").raw(obs::Registry::to_json(snap));
          }
          if (req.format != "json") {
            w.member("prometheus", obs::Registry::to_prometheus(snap));
          }
        } else if (req.op == "trace") {
          w.key("trace").raw(obs::Tracer::instance().collect_json(
              static_cast<std::size_t>(req.last), req.filter));
        } else if (req.op == "shutdown") {
          w.member("draining", true);
          stop.store(true, std::memory_order_relaxed);
        }
      };
      const std::string reply = reply_ok_op(ids, req.op, body);
      const double total_ms = ms_between(inline_start, Clock::now());
      op_histogram(req.op).record(
          static_cast<std::uint64_t>(total_ms * 1000.0));
      log_request(req, "ok", {}, total_ms);
      write_reply(conn, reply);
      return;
    }

    // Idempotent retry: a synthesis request carrying an id the server
    // has already answered (or is still executing) is served the
    // original's reply, never re-executed.  The check runs before
    // admission so a retry can never be shed while its original is in
    // flight.
    if (!req.id.empty()) {
      std::string replay;
      bool attached = false;
      {
        std::lock_guard<std::mutex> lock(dedupe.mu);
        const auto done_it = dedupe.done.find(req.id);
        if (done_it != dedupe.done.end()) {
          replay = done_it->second;
        } else if (const auto pending_it = dedupe.pending.find(req.id);
                   pending_it != dedupe.pending.end()) {
          pending_it->second.push_back(&conn);
          attached = true;
          std::lock_guard<std::mutex> conn_lock(conn.mu);
          ++conn.outstanding;
        }
      }
      if (!replay.empty() || attached) {
        bump(&ServerStats::deduped, "serve.deduped");
        log_request(req, "deduped", {}, 0.0);
        if (!replay.empty()) write_reply(conn, replay);
        return;
      }
    }

    // Synthesis ops go through admission control onto the pool.
    int expected = inflight.load(std::memory_order_relaxed);
    do {
      if (expected >= options.max_inflight) {
        bump(&ServerStats::overloaded, "serve.overloaded");
        log_request(req, "overloaded", {}, 0.0);
        write_reply(conn, reply_overloaded(ids));
        return;
      }
    } while (!inflight.compare_exchange_weak(expected, expected + 1,
                                             std::memory_order_relaxed));
    obs::Registry::global().gauge("serve.inflight").set(expected + 1);
    obs::Registry::global().gauge("serve.inflight_peak").update_max(
        expected + 1);

    {
      std::lock_guard<std::mutex> lock(conn.mu);
      ++conn.outstanding;
    }
    if (!req.id.empty()) {
      // Publish the id as in-flight so a retry arriving while this
      // execution runs attaches instead of re-executing.  (Two
      // originals racing the same id both execute — synthesis is
      // deterministic, so both produce the same reply.)
      std::lock_guard<std::mutex> lock(dedupe.mu);
      dedupe.pending.try_emplace(req.id);
    }
    const auto admitted = Clock::now();
    // The task owns a copy of the request; `conn` outlives it because
    // the reader thread waits for outstanding == 0 before closing.
    pool->submit([this, &conn, req = std::move(req), admitted] {
      const auto started = Clock::now();
      ReplyTimings timings;
      timings.queue_ms = ms_between(admitted, started);
      Outcome out;
      {
        // The request's trace context covers everything execute() does —
        // including per-controller spans on other pool workers, which
        // re-capture it at their own submit sites (see flow.cpp).  The
        // span adds its elapsed ms to run_ms at scope exit, before the
        // reply (which embeds the timings) is rendered below.
        obs::TraceContextScope trace_scope(req.trace_id);
        obs::Span span("serve.request", obs::kCatFlow, &timings.run_ms);
        span.arg("op", req.op);
        if (!req.design.empty()) span.arg("design", req.design);
        out = execute(req);
      }
      const ReplyIds ids{req.id, req.trace_id};
      const std::string reply =
          out.ok ? reply_ok_result(ids, out.result_json, timings)
                 : reply_error(ids, out.stage, out.rule, out.message,
                               &timings);
      obs::Registry::global().histogram("serve.queue_us").record(
          static_cast<std::uint64_t>(timings.queue_ms * 1000.0));
      obs::Registry::global().histogram("serve.run_us").record(
          static_cast<std::uint64_t>(timings.run_ms * 1000.0));
      op_histogram(req.op).record(static_cast<std::uint64_t>(
          (timings.queue_ms + timings.run_ms) * 1000.0));
      log_request(req, out.ok ? "ok" : "error", out.cache,
                  timings.queue_ms + timings.run_ms);
      // Idempotency bookkeeping: remember the reply for late retries
      // (bounded, oldest-forgotten) and hand it to every retry that
      // attached while this execution ran.
      std::vector<Conn*> waiters;
      if (!req.id.empty()) {
        std::lock_guard<std::mutex> lock(dedupe.mu);
        if (const auto it = dedupe.pending.find(req.id);
            it != dedupe.pending.end()) {
          waiters = std::move(it->second);
          dedupe.pending.erase(it);
        }
        if (dedupe.done.emplace(req.id, reply).second) {
          dedupe.done_order.push_back(req.id);
          while (dedupe.done_order.size() > kMaxDedupedReplies) {
            dedupe.done.erase(dedupe.done_order.front());
            dedupe.done_order.pop_front();
          }
        }
      }
      write_reply(conn, reply);
      for (Conn* waiter : waiters) write_reply(*waiter, reply);
      obs::Registry::global().gauge("serve.inflight").set(
          inflight.fetch_sub(1, std::memory_order_relaxed) - 1);
      // Release waiters before the owning conn: each waiter's reader
      // destroys its Conn as soon as its outstanding count hits 0.
      for (Conn* waiter : waiters) release_outstanding(*waiter);
      release_outstanding(conn);
    });
  }

  void serve_connection(int fd) {
    Conn conn;
    conn.fd = fd;
    std::string buffer;
    // Slow-trickle guard: the deadline by which the partial line held in
    // `buffer` must complete.  Re-armed whenever the buffer empties.
    Clock::time_point line_deadline{};
    while (!stop.load(std::memory_order_relaxed)) {
      pollfd pfd{fd, POLLIN, 0};
      const int ready = util::retry_poll(&pfd, 1, kPollMs);
      if (ready < 0) break;
      if (!buffer.empty() && options.line_timeout_ms > 0 &&
          Clock::now() >= line_deadline) {
        bump(&ServerStats::line_timeouts, "serve.line_timeouts");
        write_reply(conn,
                    reply_bad_request({}, "incomplete request line: no "
                                          "newline within the line timeout"));
        break;
      }
      if (ready == 0) continue;
      char chunk[65536];
      ssize_t n = util::retry_recv(fd, chunk, sizeof(chunk), 0);
      if (util::failpoint("serve.recv").kind != util::FailpointHit::Kind::kNone) {
        n = -1;  // injected connection fault
      }
      if (n <= 0) break;  // EOF or error: client is done
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl = buffer.find('\n', start);
           nl != std::string::npos; nl = buffer.find('\n', start)) {
        const std::string line = buffer.substr(start, nl - start);
        start = nl + 1;
        if (!line.empty()) handle_line(conn, line);
      }
      buffer.erase(0, start);
      if (buffer.empty()) {
        line_deadline = Clock::time_point{};
      } else if (start > 0 || line_deadline == Clock::time_point{}) {
        // A fresh partial line just started: arm its deadline.  A
        // trickler that never completes a line keeps the original arm.
        line_deadline =
            Clock::now() + std::chrono::milliseconds(options.line_timeout_ms);
      }
      if (buffer.size() > kMaxLineBytes) {
        write_reply(conn, reply_bad_request({}, "request line too large"));
        break;
      }
    }
    // Drain: every admitted request must flush its reply before the
    // socket closes, including during shutdown.
    {
      std::unique_lock<std::mutex> lock(conn.mu);
      conn.cv.wait(lock, [&conn] { return conn.outstanding == 0; });
    }
    ::close(fd);
  }

  void run() {
    obs::Registry::global()
        .gauge("serve.max_inflight")
        .set(options.max_inflight);
    std::vector<std::thread> readers;
    while (!stop.load(std::memory_order_relaxed)) {
      pollfd pfd{listen_fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, kPollMs);
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (ready == 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      if (util::failpoint("serve.accept").kind !=
          util::FailpointHit::Kind::kNone) {
        ::close(fd);  // injected accept fault: drop the connection
        continue;
      }
      bump(&ServerStats::connections, "serve.connections");
      readers.emplace_back([this, fd] { serve_connection(fd); });
    }
    // Graceful drain: stop accepting, let every connection finish its
    // in-flight work (readers wait on their own outstanding counts).
    ::close(listen_fd);
    listen_fd = -1;
    for (std::thread& t : readers) t.join();
    // Destroying the pool joins its workers after the queue drains; by
    // now every task has already run (readers waited), so this is quick.
    pool.reset();
  }

  std::string stats_json() const {
    ServerStats s;
    {
      std::lock_guard<std::mutex> lock(stats_mu);
      s = stats;
    }
    const auto cache_stats = cache.stats();
    util::JsonWriter w;
    w.begin_object();
    w.key("server").begin_object();
    w.member("connections", s.connections);
    w.member("requests", s.requests);
    w.member("completed", s.completed);
    w.member("errors", s.errors);
    w.member("bad_requests", s.bad_requests);
    w.member("overloaded", s.overloaded);
    w.member("deduped", s.deduped);
    w.member("line_timeouts", s.line_timeouts);
    w.member("max_inflight", options.max_inflight);
    w.member("jobs", static_cast<std::uint64_t>(jobs));
    w.end_object();
    w.key("cache").begin_object();
    w.member("hits", cache_stats.hits);
    w.member("disk_hits", cache_stats.disk_hits);
    w.member("misses", cache_stats.misses);
    w.member("evictions", cache_stats.evictions);
    w.member("entries", static_cast<std::uint64_t>(cache_stats.entries));
    w.member("max_entries",
             static_cast<std::uint64_t>(cache_stats.max_entries));
    w.end_object();
    if (disk != nullptr) {
      const auto d = disk->stats();
      w.key("disk_cache").begin_object();
      w.member("root", disk->root());
      w.member("hits", d.hits);
      w.member("misses", d.misses);
      w.member("stores", d.stores);
      w.member("store_errors", d.store_errors);
      w.member("corrupt_dropped", d.corrupt_dropped);
      w.member("evictions", d.evictions);
      w.member("recovered_tmp", d.recovered_tmp);
      w.member("quarantined", d.quarantined);
      w.member("journal_applied", d.journal_applied);
      w.member("generation", disk->generation());
      w.member("entries", static_cast<std::uint64_t>(disk->entry_count()));
      w.member("max_bytes", disk->max_bytes());
      w.end_object();
    }
    w.end_object();
    return w.str();
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() = default;

void Server::run() { impl_->run(); }

void Server::stop() noexcept {
  impl_->stop.store(true, std::memory_order_relaxed);
}

bool Server::stopping() const noexcept {
  return impl_->stop.load(std::memory_order_relaxed);
}

const ServerOptions& Server::options() const { return impl_->options; }

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(impl_->stats_mu);
  return impl_->stats;
}

std::string Server::stats_json() const { return impl_->stats_json(); }

minimalist::SynthCache& Server::cache() { return impl_->cache; }

DiskCache* Server::disk_cache() { return impl_->disk.get(); }

}  // namespace bb::serve
