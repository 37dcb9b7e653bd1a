// serve_mixed: an in-process serve::Server (jobs=2, disk cache and
// project dir under the work dir) driven by two closed-loop clients over
// its Unix-domain socket.
//
// Set-up (three times over, keeping the last) starts a server on empty
// directories, warms the hit set (the four paper designs by name, the
// single-procedure examples, and a few generated procedures) and builds
// examples/pipeline.balsa once as an incremental project.  Every pass then starts a new server over a fresh
// copy of those directories — so the first touch of each hit key is a
// disk-tier hit and every pass replays identical work — and sends a
// seeded shuffle of a fixed op mix:
//   80 %  hits    synthesize of a warmed key, every key equally often
//   10 %  misses  synthesize of a generated procedure the warmed
//                 directories have never seen
//   10 %  edits   synthesize_incremental of pipeline.balsa with one
//                 procedure's loop body toggled between its original and
//                 doubled form (sent in stream order, so every edit
//                 dirties exactly one unit)
// Both clients pull from the one stream, so neither idles while the
// other still has work queued.
// The generated procedures come from a fixed generator seed, so every
// benchmark seed sees the same work; the seed drives the shuffles.
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "src/balsa/printer.hpp"
#include "src/designs/designs.hpp"
#include "src/fuzz/gen.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/client.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/util/json.hpp"
#include "src/util/json_parse.hpp"
#include "src/util/prng.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kCorpusSeed = 1;
constexpr int kWarmGenerated = 5;
constexpr int kHitsPerKey = 24;  // x 12 hit keys = 288 hits per pass
constexpr int kMissesPerPass = 36;
constexpr int kEditsPerPass = 36;
constexpr int kClients = 2;
constexpr int kSetups = 3;
constexpr int kReplyTimeoutMs = 120000;

enum class Kind { kHit, kMiss, kEdit };

struct Op {
  Kind kind = Kind::kHit;
  std::string key{};      ///< hit key / generated name / edited unit
  std::string request{};  ///< the request line
  int edit = 0;           ///< kEdit: position among the pass's edits
  std::string reply{};
  double ms = 0.0;
};

std::string synthesize_request(const std::string& design,
                               const std::string& source) {
  bb::util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", bb::serve::kProtocolVersion);
  w.member("op", "synthesize");
  if (!design.empty()) w.member("design", design);
  if (!source.empty()) w.member("source", source);
  w.key("options").begin_object().member("verilog", true).end_object();
  w.end_object();
  return w.str();
}

std::string incremental_request(const std::string& source) {
  bb::util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", bb::serve::kProtocolVersion);
  w.member("op", "synthesize_incremental");
  w.member("project", "pipeline");
  w.member("source", source);
  w.end_object();
  return w.str();
}

/// The generated procedure `index` of the fixed corpus, as source.
std::string generated_source(int index) {
  bb::fuzz::GenOptions gen;
  gen.max_commands = 10;
  bb::util::SplitMix64 rng(kCorpusSeed * 0x9E3779B97F4A7C15ull +
                           static_cast<std::uint64_t>(index));
  return bb::balsa::to_source(bb::fuzz::generate_procedure(rng, gen));
}

/// pipeline.balsa split into its procedures, each with its original and
/// doubled-loop-body text; program() reassembles one variant choice.
class Pipeline {
 public:
  explicit Pipeline(const std::string& source) {
    std::size_t at = source.find("\nprocedure ");
    if (at == std::string::npos) throw std::runtime_error("no procedures");
    prefix_ = source.substr(0, at + 1);
    while (at != std::string::npos) {
      const std::size_t next = source.find("\nprocedure ", at + 1);
      const std::string text = source.substr(
          at + 1, next == std::string::npos ? std::string::npos : next - at);
      const std::size_t open = text.find("  loop\n");
      const std::size_t close = text.find("\n  end\n", open);
      if (open == std::string::npos || close == std::string::npos) {
        throw std::runtime_error("pipeline.balsa: unexpected layout");
      }
      const std::string body = text.substr(open + 7, close - open - 7);
      Unit u;
      u.name = text.substr(10, text.find(' ', 10) - 10);
      u.original = text;
      u.doubled = text.substr(0, open + 7) + body + " ;\n" + body +
                  text.substr(close);
      units_.push_back(std::move(u));
      at = next;
    }
  }

  std::size_t size() const { return units_.size(); }
  const std::string& name(std::size_t i) const { return units_[i].name; }

  /// Flips unit `i`'s variant and returns the whole program text.
  std::string toggle(std::size_t i) {
    units_[i].is_doubled = !units_[i].is_doubled;
    return program();
  }

  std::string program() const {
    std::string out = prefix_;
    for (const Unit& u : units_) out += u.is_doubled ? u.doubled : u.original;
    return out;
  }

 private:
  struct Unit {
    std::string name, original, doubled;
    bool is_doubled = false;
  };
  std::string prefix_;
  std::vector<Unit> units_;
};

/// Report + Verilog of a synthesize reply ("" unless status is ok).
std::string payload(const bb::util::JsonValue& doc) {
  const bb::util::JsonValue* result = doc.get("result");
  if (doc.get_string("status") != "ok" || result == nullptr) return {};
  return result->get_string("report") + result->get_string("verilog");
}

/// "" when an edit reply rebuilt exactly `unit`, otherwise why not.
std::string edit_problem(const bb::util::JsonValue& doc,
                         const std::string& unit, double* rebuilt,
                         double* reused) {
  if (doc.get_string("status") != "ok") return "status not ok";
  const bb::util::JsonValue* result = doc.get("result");
  const bb::util::JsonValue* incr =
      result != nullptr ? result->get("incremental") : nullptr;
  const bb::util::JsonValue* units = incr != nullptr ? incr->get("units")
                                                     : nullptr;
  if (units == nullptr || !units->is_array()) return "no incremental units";
  *rebuilt += static_cast<double>(incr->get_int("units_rebuilt", 0));
  *reused += static_cast<double>(incr->get_int("units_reused", 0));
  std::vector<std::string> rebuilt_names;
  for (const auto& u : units->array) {
    if (!u.get_bool("reused", true)) rebuilt_names.push_back(u.get_string("name"));
  }
  if (rebuilt_names.size() == 1 && rebuilt_names[0] == unit) return {};
  std::string got;
  for (const auto& n : rebuilt_names) got += " " + n;
  return "rebuilt [" + got + " ] instead of " + unit;
}

/// A server running on its own thread; stop() + join on destruction.
class RunningServer {
 public:
  explicit RunningServer(bb::serve::ServerOptions options)
      : server_(std::move(options)), thread_([this] { server_.run(); }) {}
  ~RunningServer() {
    server_.stop();
    thread_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  bb::serve::Server& server() { return server_; }

 private:
  bb::serve::Server server_;
  std::thread thread_;
};

}  // namespace

void run_serve_mixed(const Args& args, Result& result) {
  result.info("jobs", "server 2, clients 2");
  result.info("cache",
              "explicit: a new server's own SynthCache per pass, over a "
              "fresh copy of the disk cache dir warmed in set-up");

  const fs::path work(args.work_dir);
  const fs::path warmed = work / "warmed";
  const fs::path live = work / "live";
  bb::serve::ServerOptions options;
  options.jobs = 2;
  options.live_trace = false;
  // Relative paths keep sun_path short wherever the checkout is.
  const auto use_dirs = [&options](const fs::path& root) {
    options.socket_path = (root / "serve.sock").string();
    options.cache_dir = (root / "cache").string();
    options.project_dir = (root / "projects").string();
    fs::create_directories(options.project_dir);
  };

  // ---- set-up ----
  std::vector<std::pair<std::string, std::string>> hit_keys;  // key, request
  std::vector<std::pair<std::string, std::string>> misses;
  std::string pipeline_source;
  std::map<std::string, std::string> expected;  // hit key -> payload
  for (int i = 0; i < kSetups; ++i) {
    const auto setup_start = Clock::now();
    hit_keys.clear();
    misses.clear();
    for (const auto* d : bb::designs::all_designs()) {
      hit_keys.emplace_back(d->name, synthesize_request(d->name, ""));
    }
    for (const std::string stem : {"buffer2", "counter4", "tick"}) {
      hit_keys.emplace_back(
          stem, synthesize_request("", read_file(args.root + "/examples/" +
                                                 stem + ".balsa")));
    }
    for (int k = 0; k < kWarmGenerated; ++k) {
      hit_keys.emplace_back("gen" + std::to_string(k),
                            synthesize_request("", generated_source(k)));
    }
    for (int k = kWarmGenerated; k < kWarmGenerated + kMissesPerPass; ++k) {
      misses.emplace_back("gen" + std::to_string(k),
                          synthesize_request("", generated_source(k)));
    }
    pipeline_source = read_file(args.root + "/examples/pipeline.balsa");
    fs::remove_all(warmed);
    use_dirs(warmed);
    {
      RunningServer warm(options);
      bb::serve::Client client(options.socket_path);
      for (const auto& [key, request] : hit_keys) {
        const auto doc =
            bb::util::parse_json(client.roundtrip(request, kReplyTimeoutMs));
        expected[key] = doc ? payload(*doc) : std::string();
        result.attempt(!expected[key].empty(), key + ": warm-up failed");
      }
      const auto doc = bb::util::parse_json(client.roundtrip(
          incremental_request(Pipeline(pipeline_source).program()),
          kReplyTimeoutMs));
      result.attempt(doc && doc->get_string("status") == "ok",
                     "pipeline: initial incremental build failed");
    }
    fs::remove(options.socket_path);
    result.setup(seconds_since(setup_start));
  }

  // ---- timed passes ----
  bb::util::SplitMix64 rng(args.seed);
  result.run_passes([&] {
    std::vector<Op> ops;
    for (const auto& [key, request] : hit_keys) {
      for (int i = 0; i < kHitsPerKey; ++i) {
        ops.push_back({.kind = Kind::kHit, .key = key, .request = request});
      }
    }
    for (const auto& [key, request] : misses) {
      ops.push_back({.kind = Kind::kMiss, .key = key, .request = request});
    }
    for (int i = 0; i < kEditsPerPass; ++i) {
      ops.push_back({.kind = Kind::kEdit});
    }
    std::vector<Op> stream;
    for (const std::size_t i : shuffled_order(ops.size(), rng)) {
      stream.push_back(std::move(ops[i]));
    }
    ops = std::move(stream);
    // Edits are materialized in stream order: each toggles one unit of
    // the program the previous edit sent.
    Pipeline pipeline(pipeline_source);
    int edits = 0;
    for (Op& op : ops) {
      if (op.kind != Kind::kEdit) continue;
      const std::size_t unit = rng.below(pipeline.size());
      op.edit = edits++;
      op.key = pipeline.name(unit);
      op.request = incremental_request(pipeline.toggle(unit));
    }
    fs::remove_all(live);
    fs::copy(warmed, live, fs::copy_options::recursive);
    use_dirs(live);
    RunningServer running(options);
    bb::obs::Registry::global().reset();
    std::vector<std::unique_ptr<bb::serve::Client>> connections;
    for (int c = 0; c < kClients; ++c) {
      connections.push_back(
          std::make_unique<bb::serve::Client>(options.socket_path));
    }

    // Both clients pull the next op of the stream; an edit waits until
    // the edit before it has been answered, so edits reach the server in
    // stream order whichever client carries them.
    std::atomic<std::size_t> next{0};
    std::mutex edit_mu;
    std::condition_variable edit_cv;
    int edits_done = 0;
    const auto t0 = Clock::now();
    std::vector<std::thread> clients;
    std::vector<std::string> errors(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          for (std::size_t i = next++; i < ops.size(); i = next++) {
            Op& op = ops[i];
            if (op.kind == Kind::kEdit) {
              std::unique_lock<std::mutex> lock(edit_mu);
              edit_cv.wait(lock, [&] { return edits_done >= op.edit; });
            }
            bb::obs::Span span("serve.roundtrip", "perf");
            const auto start = Clock::now();
            op.reply = connections[c]->roundtrip(op.request, kReplyTimeoutMs);
            op.ms = ms_since(start);
            if (op.kind == Kind::kEdit) {
              std::lock_guard<std::mutex> lock(edit_mu);
              ++edits_done;
              edit_cv.notify_all();
            }
          }
        } catch (const std::exception& e) {
          errors[c] = e.what();
          // Unblock a client waiting on an edit this one will not send.
          std::lock_guard<std::mutex> lock(edit_mu);
          edits_done = kEditsPerPass + 1;
          edit_cv.notify_all();
        }
      });
    }
    for (auto& t : clients) t.join();
    const double pass_s = seconds_since(t0);

    // Outside the timed window: every reply checked.
    for (const std::string& e : errors) {
      if (!e.empty()) throw std::runtime_error("client: " + e);
    }
    double rebuilt = 0.0, reused = 0.0;
    std::vector<double> synth_ms;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const auto doc = bb::util::parse_json(op.reply);
      if (!doc) {
        result.attempt(false, op.key + ": unparseable reply");
        continue;
      }
      const char* series = "hit_ms";
      if (op.kind == Kind::kHit) {
        result.attempt(payload(*doc) == expected[op.key],
                       op.key + ": hit payload differs from warm-up");
      } else if (op.kind == Kind::kMiss) {
        series = "miss_ms";
        result.attempt(!payload(*doc).empty(), op.key + ": miss failed");
      } else {
        series = "edit_ms";
        const std::string problem =
            edit_problem(*doc, op.key, &rebuilt, &reused);
        result.attempt(problem.empty(), "edit " + op.key + ": " + problem);
      }
      if (op.kind != Kind::kEdit) synth_ms.push_back(op.ms);
      result.op(std::to_string(i), op.ms);
      result.sample(series, op.ms);
    }
    const auto cache = running.server().cache().stats();
    auto& registry = bb::obs::Registry::global();
    result.count("cache.mem_hits", static_cast<double>(cache.hits));
    result.count("cache.disk_hits", static_cast<double>(cache.disk_hits));
    result.count("cache.misses", static_cast<double>(cache.misses));
    result.count("incr.units_rebuilt", rebuilt);
    result.count("incr.units_reused", reused);
    result.count("serve.client_ms_p50", median(synth_ms));
    result.count(
        "serve.server_ms_p50",
        registry.histogram("serve.op.synthesize.us").quantile(0.5) / 1000.0);
    result.count("pool.queue_wait_us_p50",
                 registry.histogram("pool.queue_wait_us").quantile(0.5));
    return pass_s;
  });
}

}  // namespace perfbench
