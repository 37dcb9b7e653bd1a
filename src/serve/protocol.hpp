// The synthesis service wire protocol: newline-delimited JSON over a
// Unix-domain stream socket.
//
// Every request is one JSON object on one line, tagged with
// "schema_version"; every reply is one JSON object on one line.  Ops:
//
//   ping           liveness probe                     -> status "ok"
//   stats          server + cache statistics          -> status "ok"
//   metrics        live obs::Registry snapshot        -> JSON and/or
//                  ("format": json|prometheus|both)      Prometheus text
//   trace          live span-ring query ("last" N     -> Chrome trace
//                  spans, "filter" by trace id)          JSON document
//   shutdown       graceful drain + exit              -> status "ok"
//   synthesize     full flow over "source" (mini-     -> report, area,
//                  Balsa text) or "design" (built-in)    timings, cache
//   synthesize_bm  one Burst-Mode spec ("bms" text)   -> .sol logic
//   analyze        every lint + semantic pass over    -> lint JSON (and
//                  "source"/"design", never aborting     SARIF on request)
//   synthesize_incremental
//                  incremental build of a whole        -> spliced report,
//                  program ("source", one or more         dirty/reused
//                  procedures) against the named          unit counts,
//                  "project" under the server's           timings (and
//                  --project-dir (src/incr)               Verilog opt-in)
//
// Replies echo the request "id" (when given) and carry one of the
// statuses: "ok", "error" (structured stage/rule/message), "overloaded"
// (admission queue full — retry later), "bad_request" (unparseable or
// unsupported request).  Request decoding is strict about shape but
// lenient about unknown members, so the schema can grow compatibly.
// An "options" member that some op reads is refused when sent to an op
// that does not read it (kOps below), since dropping it would answer a
// question the caller did not ask.
//
// Trace context: a request may carry "trace_id" naming the distributed
// trace it belongs to; the server mints one ("srv-<seq>") when absent.
// Either way the reply echoes the effective id as "trace_id", and every
// span recorded while the request executes — including per-controller
// synthesis on pool workers — is tagged with it, so the `trace` op can
// pull one request's spans out of the ring with "filter".
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "src/flow/flow.hpp"
#include "src/util/json.hpp"

namespace bb::serve {

/// Wire format revision; requests with a different schema_version are
/// rejected with bad_request.
inline constexpr int kProtocolVersion = 1;

/// One op and the "options" members it reads.
struct OpSpec {
  std::string_view name;
  std::string_view options;  ///< space-separated member names
};

/// Every op the daemon answers, with the options each one reads.
inline constexpr std::array<OpSpec, 9> kOps = {{
    {"ping", ""}, {"stats", ""}, {"metrics", ""}, {"trace", ""},
    {"shutdown", ""},
    {"synthesize",
     "unoptimized max_states jobs cache strict lint work_budget verilog"},
    {"synthesize_bm", "cache work_budget"},
    {"analyze", "unoptimized max_states sarif no_analyze"},
    {"synthesize_incremental",
     "unoptimized max_states jobs cache strict lint work_budget verilog"},
}};

/// FlowOptions overrides a request may carry (absent members keep the
/// server-side defaults).
struct RequestOptions {
  bool unoptimized = false;
  std::optional<int> max_states;
  std::optional<int> jobs;
  std::optional<bool> cache;
  std::optional<bool> strict;
  std::optional<bool> lint;
  /// Per-request synthesis deadline in abstract work operations
  /// (util::WorkBudget); overrides the server default.
  std::optional<long long> work_budget;
  /// Include structural Verilog of the mapped control netlist in the
  /// reply (synthesize, synthesize_incremental).
  bool verilog = false;
  /// Include a SARIF 2.1.0 rendering of the findings in the reply
  /// (analyze only).
  bool sarif = false;
  /// Skip the deep semantic passes (AN/PN/NL005+) and run only the
  /// per-layer lint passes (analyze only).
  bool no_analyze = false;
};

struct Request {
  std::string id;        ///< echoed verbatim in the reply; may be empty
  std::string op;        ///< one of kOps
  std::string trace_id;  ///< client-supplied trace context; server mints
                         ///< one when empty
  std::string design;    ///< built-in design name (synthesize)
  std::string source;    ///< inline mini-Balsa text (synthesize)
  std::string bms;       ///< inline .bms text (synthesize_bm)
  std::string project;   ///< project name under the server's project dir
                         ///< (synthesize_incremental; [A-Za-z0-9_-]+,
                         ///< default "default")
  std::string mode = "speed";   ///< "speed" | "area" (synthesize_bm)
  std::string format = "json";  ///< "json" | "prometheus" | "both" (metrics)
  std::string filter;           ///< trace-id filter (trace)
  int last = 0;                 ///< newest-N span cap, 0 = all (trace)
  RequestOptions options;
};

/// Parses one request line.  Returns false and fills `error` on any
/// defect (bad JSON, wrong schema_version, unknown op, missing input,
/// an option the op does not read).
bool parse_request(const std::string& line, Request* request,
                   std::string* error);

/// Applies a request's overrides on top of the server's base options.
/// The flow memoizes through `cache` (the daemon's own) unless the
/// request says "cache": false, which leaves cache_instance null.
flow::FlowOptions apply_options(const RequestOptions& overrides,
                                long long default_work_budget,
                                minimalist::SynthCache* cache);

// ---- reply rendering (every function returns one line, no newline) ----

/// Envelope identity echoed in every reply: the request "id" and the
/// effective "trace_id" (either may be empty, in which case the member
/// is omitted).
struct ReplyIds {
  std::string id;
  std::string trace_id;
};

struct ReplyTimings {
  double queue_ms = 0.0;  ///< admission to execution start
  double run_ms = 0.0;    ///< execution
};

/// An inline op's reply: the envelope, "op", then whatever members
/// `body` (may be empty) writes for that op.
std::string reply_ok_op(const ReplyIds& ids, std::string_view op,
                        const std::function<void(util::JsonWriter&)>& body);
/// `result_json` is a pre-rendered JSON object fragment.
std::string reply_ok_result(const ReplyIds& ids,
                            const std::string& result_json,
                            const ReplyTimings& timings);
std::string reply_error(const ReplyIds& ids, const std::string& stage,
                        const std::string& rule, const std::string& message,
                        const ReplyTimings* timings = nullptr);
std::string reply_overloaded(const ReplyIds& ids);
std::string reply_bad_request(const ReplyIds& ids,
                              const std::string& message);

}  // namespace bb::serve
