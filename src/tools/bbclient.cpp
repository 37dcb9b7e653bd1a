// bb-client — one-shot client for the bb-served synthesis daemon.
//
// Builds one request from the command line, sends it over the daemon's
// Unix-domain socket, and prints the reply JSON line on stdout.
//
// Exit status (scripts branch on these):
//   0  reply status "ok"
//   1  reply status "error" (synthesis/analysis failed server-side)
//   2  usage error
//   3  reply status "overloaded" (shed by admission control — retryable)
//   4  reply deadline passed (the request may still execute)
//   5  transport failure (cannot connect, connection broken, bad reply)
//   6  reply status "bad_request"
//
//   bb-client --socket /tmp/bb.sock --op synthesize --design systolic
//   bb-client --socket /tmp/bb.sock --op synthesize_bm --bms spec.bms
//   bb-client --socket /tmp/bb.sock --op analyze --design stack
//   bb-client --socket /tmp/bb.sock --op metrics --format prometheus
//   bb-client --socket /tmp/bb.sock --op trace --last 100
//
// Options:
//   --socket PATH      daemon socket (required)
//   --op OP            any op of serve::kOps, listed by the usage line
//                      (default: implied by --project, --bms,
//                      --design/--source in that order, else ping)
//   --design NAME      built-in design (synthesize, analyze)
//   --source FILE      mini-Balsa source file, "-" = stdin (synthesize,
//                      analyze, synthesize_incremental)
//   --project NAME     project under the server's --project-dir
//                      (synthesize_incremental; default "default")
//   --bms FILE         .bms file, "-" = stdin (synthesize_bm)
//   --mode MODE        speed | area (synthesize_bm; default speed)
//   --id ID            request id echoed in the reply
//   --trace-id ID      trace context for the request (server mints one
//                      when absent; the reply echoes the effective id)
//   --format F         json | prometheus | both (metrics; default json).
//                      "prometheus" prints the decoded text exposition
//                      unless --json asks for the raw envelope
//   --last N           newest-N span cap (trace; default all)
//   --filter ID        only spans tagged with this trace id (trace)
//   --json             always print the raw reply envelope; on transport
//                      failure/timeout synthesize one
//                      ({"status":"transport_error"|"timeout",...}) so
//                      scripts get exactly one JSON line per invocation
//   --verilog          include mapped Verilog in the reply
//   --unoptimized      template baseline flow options
//   --no-cache         bypass the synthesis cache for this request
//   --work-budget N    per-request work budget
//   --timeout-ms N     reply deadline (default 120000; 0 = forever)
//   --retries N        attempts on connection failure/timeout (default 1
//                      = no retry); retried synthesis requests are
//                      auto-assigned a request id so the server can
//                      dedupe a retry whose original actually ran
//   --backoff-ms N     first retry delay, doubled per retry (default 50)
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include <unistd.h>

#include "src/serve/client.hpp"
#include "src/serve/protocol.hpp"
#include "src/tools/cli.hpp"
#include "src/util/io.hpp"
#include "src/util/json.hpp"
#include "src/util/json_parse.hpp"

namespace {

// Exit codes (keep in sync with the file header).
constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitOverloaded = 3;
constexpr int kExitTimeout = 4;
constexpr int kExitTransport = 5;
constexpr int kExitBadRequest = 6;

int exit_code_for_status(const std::string& status) {
  if (status == "ok") return kExitOk;
  if (status == "overloaded") return kExitOverloaded;
  if (status == "bad_request") return kExitBadRequest;
  if (status == "error") return kExitError;
  return kExitTransport;  // not a protocol reply
}

/// The bytes of `path` ("-" = stdin); exits 2 when it cannot be read.
std::string read_input(const std::string& path) {
  if (auto text = bb::util::read_file(path == "-" ? "/dev/stdin" : path)) {
    return *std::move(text);
  }
  std::cerr << "bb-client: cannot read '" << path << "'\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string op;
  std::string design;
  std::string source_path;
  std::string bms_path;
  std::string project;
  std::string mode = "speed";
  std::string id;
  std::string trace_id;
  std::string format = "json";
  std::string filter;
  int last = 0;
  bool json_envelope = false;
  bool verilog = false;
  bool unoptimized = false;
  bool no_cache = false;
  long long work_budget = -1;
  int timeout_ms = 120000;
  int retries = 1;
  int backoff_ms = 50;
  constexpr int kIntMax = std::numeric_limits<int>::max();
  std::string ops = "ops:";
  for (const bb::serve::OpSpec& o : bb::serve::kOps) (ops += ' ') += o.name;
  bb::tools::Cli cli("bb-client", "", 0, 0, ops);
  cli.text("--socket", "PATH", &socket_path)
      .text("--op", "OP", &op)
      .text("--design", "NAME", &design)
      .text("--source", "FILE", &source_path)
      .text("--project", "NAME", &project)
      .text("--bms", "FILE", &bms_path)
      .text("--mode", "speed|area", &mode)
      .text("--id", "ID", &id)
      .text("--trace-id", "ID", &trace_id)
      .choice("--format", {"json", "prometheus", "both"}, &format)
      .integer("--last", 0, kIntMax, &last)
      .text("--filter", "ID", &filter)
      .flag("--json", &json_envelope)
      .flag("--verilog", &verilog)
      .flag("--unoptimized", &unoptimized)
      .flag("--no-cache", &no_cache)
      .integer("--work-budget", 0, std::numeric_limits<long long>::max(),
               &work_budget)
      .integer("--timeout-ms", 0, kIntMax, &timeout_ms)
      .integer("--retries", 1, 1000, &retries)
      .integer("--backoff-ms", 1, 3600000, &backoff_ms);
  cli.parse(argc, argv);
  if (socket_path.empty()) cli.fail("--socket is required");
  // Without --op, the payload flags pick the op.
  if (op.empty()) {
    op = !project.empty()                          ? "synthesize_incremental"
         : !bms_path.empty()                       ? "synthesize_bm"
         : !design.empty() || !source_path.empty() ? "synthesize"
                                                   : "ping";
  }

  // Retried requests need an id — it is the server's idempotency key,
  // the only thing keeping a retry whose original actually executed
  // from running twice.  Generate one when the caller did not.
  if (retries > 1 && id.empty()) {
    const auto now = std::chrono::system_clock::now().time_since_epoch();
    id = "bbc-" + std::to_string(::getpid()) + "-" +
         std::to_string(
             std::chrono::duration_cast<std::chrono::nanoseconds>(now)
                 .count());
  }

  bb::util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", bb::serve::kProtocolVersion);
  if (!id.empty()) w.member("id", id);
  if (!trace_id.empty()) w.member("trace_id", trace_id);
  w.member("op", op);
  if (!design.empty()) w.member("design", design);
  if (!source_path.empty()) w.member("source", read_input(source_path));
  if (!bms_path.empty()) w.member("bms", read_input(bms_path));
  if (!project.empty()) w.member("project", project);
  if (mode != "speed") w.member("mode", mode);
  if (format != "json") w.member("format", format);
  if (!filter.empty()) w.member("filter", filter);
  if (last > 0) w.member("last", static_cast<std::int64_t>(last));
  if (verilog || unoptimized || no_cache || work_budget >= 0) {
    w.key("options").begin_object();
    if (verilog) w.member("verilog", true);
    if (unoptimized) w.member("unoptimized", true);
    if (no_cache) w.member("cache", false);
    if (work_budget >= 0) {
      w.member("work_budget", static_cast<std::int64_t>(work_budget));
    }
    w.end_object();
  }
  w.end_object();

  try {
    std::string reply;
    if (retries > 1) {
      bb::serve::RetryOptions ropts;
      ropts.attempts = retries;
      ropts.timeout_ms = timeout_ms == 0 ? -1 : timeout_ms;
      ropts.backoff_ms = backoff_ms;
      ropts.jitter_seed = static_cast<std::uint64_t>(::getpid());
      reply = bb::serve::Client::request_idempotent(socket_path, w.str(),
                                                    ropts);
    } else {
      bb::serve::Client client(socket_path);
      reply = client.roundtrip(w.str(), timeout_ms == 0 ? -1 : timeout_ms);
    }
    const auto doc = bb::util::parse_json(reply);
    const std::string status = doc ? doc->get_string("status") : "";
    // A Prometheus scrape wants the text exposition, not JSON-escaped
    // text inside an envelope; --json overrides back to the envelope.
    if (!json_envelope && op == "metrics" && format == "prometheus" &&
        status == "ok" && doc) {
      std::cout << doc->get_string("prometheus");
    } else {
      std::cout << reply << "\n";
    }
    return exit_code_for_status(status);
  } catch (const bb::serve::ClientTimeout& e) {
    if (json_envelope) {
      bb::util::JsonWriter err;
      err.begin_object();
      err.member("status", "timeout");
      err.member("message", std::string(e.what()));
      err.end_object();
      std::cout << err.str() << "\n";
    }
    std::cerr << "bb-client: " << e.what() << "\n";
    return kExitTimeout;
  } catch (const std::exception& e) {
    if (json_envelope) {
      bb::util::JsonWriter err;
      err.begin_object();
      err.member("status", "transport_error");
      err.member("message", std::string(e.what()));
      err.end_object();
      std::cout << err.str() << "\n";
    }
    std::cerr << "bb-client: " << e.what() << "\n";
    return kExitTransport;
  }
}
