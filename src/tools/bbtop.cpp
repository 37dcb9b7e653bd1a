// bb-top — live one-screen view of a running bb-served daemon.
//
// Polls the `stats` and `metrics` ops over the daemon's Unix-domain
// socket and renders request rate, per-op latency quantiles (from the
// registry's log-bucket histograms), cache hit rates, admission /
// shedding state, and the disk-cache recovery counters.  Rates are
// derived client-side from counter deltas between consecutive frames,
// so the daemon needs no sliding-window machinery.
//
//   bb-top --socket /tmp/bb.sock
//   bb-top --socket /tmp/bb.sock --once --no-clear   # one frame (CI)
//
// Options:
//   --socket PATH      daemon socket (required)
//   --interval-ms N    refresh period (default 1000)
//   --count N          frames to render before exiting (default 0 = run
//                      until the daemon goes away or ^C)
//   --once             shorthand for --count 1
//   --no-clear         do not clear the terminal between frames (append
//                      frames instead; implied sensible for logs/CI)
//
// Exit status: 0 after --count frames, 1 when the daemon cannot be
// reached (first frame) or disappears mid-run, 2 on usage errors.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/client.hpp"
#include "src/serve/protocol.hpp"
#include "src/tools/cli.hpp"
#include "src/util/json.hpp"
#include "src/util/json_parse.hpp"

namespace {

using bb::util::JsonValue;

/// One sampled frame: the decoded stats and metrics replies plus the
/// moment they were taken.
struct Sample {
  std::chrono::steady_clock::time_point at;
  JsonValue stats;    ///< the "stats" member of the stats reply
  JsonValue metrics;  ///< the "metrics" member of the metrics reply
};

std::string request_line(const char* op) {
  bb::util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", bb::serve::kProtocolVersion);
  w.member("op", op);
  w.end_object();
  return w.str();
}

/// Fetches one frame; throws on transport failure or a non-ok reply.
Sample take_sample(const std::string& socket_path, int timeout_ms) {
  bb::serve::Client client(socket_path);
  Sample s;
  for (const char* op : {"stats", "metrics"}) {
    const std::string reply = client.roundtrip(request_line(op), timeout_ms);
    auto doc = bb::util::parse_json(reply);
    if (!doc || doc->get_string("status") != "ok") {
      throw std::runtime_error(std::string("bad ") + op + " reply: " + reply);
    }
    const JsonValue* body = doc->get(op);
    if (body == nullptr) {
      throw std::runtime_error(std::string(op) + " reply missing body");
    }
    (op[0] == 's' ? s.stats : s.metrics) = *body;
  }
  s.at = std::chrono::steady_clock::now();
  return s;
}

std::int64_t stat_int(const JsonValue& stats, const char* section,
                      const char* key) {
  const JsonValue* sec = stats.get(section);
  return sec != nullptr ? sec->get_int(key, 0) : 0;
}

double counter(const JsonValue& metrics, const char* name) {
  const JsonValue* counters = metrics.get("counters");
  const JsonValue* v = counters != nullptr ? counters->get(name) : nullptr;
  return v != nullptr ? v->number : 0.0;
}

std::int64_t gauge(const JsonValue& metrics, const char* name) {
  const JsonValue* gauges = metrics.get("gauges");
  const JsonValue* v = gauges != nullptr ? gauges->get(name) : nullptr;
  return v != nullptr ? v->integer : 0;
}

std::string fmt_us(double us) {
  char buf[32];
  if (us >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fs", us / 1e6);
  } else if (us >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fms", us / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fus", us);
  }
  return buf;
}

std::string fmt_rate(double per_s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f/s", per_s);
  return buf;
}

std::string fmt_pct(double num, double den) {
  if (den <= 0.0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * num / den);
  return buf;
}

void render(const Sample& cur, const Sample* prev, bool clear) {
  std::string out;
  if (clear) out += "\033[H\033[2J";

  const double requests = counter(cur.metrics, "serve.requests");
  double rps = 0.0;
  if (prev != nullptr) {
    const double dt =
        std::chrono::duration<double>(cur.at - prev->at).count();
    const double prev_requests = counter(prev->metrics, "serve.requests");
    if (dt > 0.0 && requests >= prev_requests) {
      rps = (requests - prev_requests) / dt;
    }
  }

  out += "bb-top — bb-served\n\n";
  out += "  requests  " + std::to_string(static_cast<long long>(requests)) +
         "  (" + fmt_rate(rps) + ")";
  out += "   inflight " + std::to_string(gauge(cur.metrics, "serve.inflight")) +
         "/" + std::to_string(stat_int(cur.stats, "server", "max_inflight")) +
         " (peak " +
         std::to_string(gauge(cur.metrics, "serve.inflight_peak")) + ")\n";
  out += "  completed " +
         std::to_string(stat_int(cur.stats, "server", "completed")) +
         "   errors " + std::to_string(stat_int(cur.stats, "server", "errors")) +
         "   shed " +
         std::to_string(stat_int(cur.stats, "server", "overloaded")) +
         "   deduped " +
         std::to_string(stat_int(cur.stats, "server", "deduped")) +
         "   bad " +
         std::to_string(stat_int(cur.stats, "server", "bad_requests")) + "\n\n";

  // Per-op latency from the serve.op.<name>.us histograms: the server
  // publishes p50/p90/p99 estimates in every metrics snapshot.
  out += "  op                         count       p50       p99\n";
  const JsonValue* histograms = cur.metrics.get("histograms");
  if (histograms != nullptr) {
    for (const auto& [name, h] : histograms->object) {
      constexpr const char* kPrefix = "serve.op.";
      if (name.rfind(kPrefix, 0) != 0) continue;
      std::string op = name.substr(std::char_traits<char>::length(kPrefix));
      if (op.size() > 3 && op.compare(op.size() - 3, 3, ".us") == 0) {
        op.resize(op.size() - 3);
      }
      const JsonValue* p50 = h.get("p50");
      const JsonValue* p99 = h.get("p99");
      char row[128];
      std::snprintf(row, sizeof(row), "  %-24s %7lld %9s %9s\n", op.c_str(),
                    static_cast<long long>(h.get_int("count", 0)),
                    fmt_us(p50 != nullptr ? p50->number : 0.0).c_str(),
                    fmt_us(p99 != nullptr ? p99->number : 0.0).c_str());
      out += row;
    }
  }

  const double mem_hits = static_cast<double>(stat_int(cur.stats, "cache", "hits"));
  const double mem_misses =
      static_cast<double>(stat_int(cur.stats, "cache", "misses"));
  out += "\n  cache     hits " + std::to_string(static_cast<long long>(mem_hits)) +
         "   misses " + std::to_string(static_cast<long long>(mem_misses)) +
         "   hit-rate " + fmt_pct(mem_hits, mem_hits + mem_misses) +
         "   entries " + std::to_string(stat_int(cur.stats, "cache", "entries")) +
         "\n";
  if (cur.stats.get("disk_cache") != nullptr) {
    const double dhits =
        static_cast<double>(stat_int(cur.stats, "disk_cache", "hits"));
    const double dmisses =
        static_cast<double>(stat_int(cur.stats, "disk_cache", "misses"));
    out += "  disk      hits " + std::to_string(static_cast<long long>(dhits)) +
           "   misses " + std::to_string(static_cast<long long>(dmisses)) +
           "   hit-rate " + fmt_pct(dhits, dhits + dmisses) + "   stores " +
           std::to_string(stat_int(cur.stats, "disk_cache", "stores")) + "\n";
    out += "  recovery  recovered_tmp " +
           std::to_string(stat_int(cur.stats, "disk_cache", "recovered_tmp")) +
           "   quarantined " +
           std::to_string(stat_int(cur.stats, "disk_cache", "quarantined")) +
           "   journal_applied " +
           std::to_string(
               stat_int(cur.stats, "disk_cache", "journal_applied")) +
           "\n";
  }
  std::cout << out << std::flush;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int interval_ms = 1000;
  long long count = 0;
  bool clear = true;

  bb::tools::Cli cli("bb-top", "", 0, 0);
  cli.text("--socket", "PATH", &socket_path)
      .integer("--interval-ms", 10, 3600000, &interval_ms)
      .integer("--count", 0, std::numeric_limits<long long>::max(), &count)
      .flag("--once", [&count] { count = 1; })
      .flag("--no-clear", &clear, false);
  cli.parse(argc, argv);
  if (socket_path.empty()) cli.fail("--socket is required");

  Sample prev;
  bool have_prev = false;
  long long frames = 0;
  for (;;) {
    Sample cur;
    try {
      cur = take_sample(socket_path, interval_ms + 5000);
    } catch (const std::exception& e) {
      std::cerr << "bb-top: " << e.what() << "\n";
      return 1;
    }
    render(cur, have_prev ? &prev : nullptr, clear);
    prev = std::move(cur);
    have_prev = true;
    if (count > 0 && ++frames >= count) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}
