#include "src/serve/protocol.hpp"

#include <limits>

#include "src/util/json.hpp"
#include "src/util/json_parse.hpp"

namespace bb::serve {

namespace {

/// Starts a reply object with the members every status shares.
void reply_head(util::JsonWriter& w, const ReplyIds& ids,
                const char* status) {
  w.begin_object();
  w.member("schema_version", kProtocolVersion);
  if (!ids.id.empty()) w.member("id", ids.id);
  if (!ids.trace_id.empty()) w.member("trace_id", ids.trace_id);
  w.member("status", status);
}

void reply_timings(util::JsonWriter& w, const ReplyTimings& timings) {
  w.key("timings_ms").begin_object();
  w.member("queue", timings.queue_ms);
  w.member("run", timings.run_ms);
  w.member("total", timings.queue_ms + timings.run_ms);
  w.end_object();
}

std::optional<int> int_member(const util::JsonValue& obj,
                              std::string_view key, std::string* error) {
  const util::JsonValue* v = obj.get(key);
  if (v == nullptr) return std::nullopt;
  if (!v->is_number() || !v->is_integer ||
      v->integer < std::numeric_limits<int>::min() ||
      v->integer > std::numeric_limits<int>::max()) {
    *error = "member '" + std::string(key) + "' must be an integer";
    return std::nullopt;
  }
  return static_cast<int>(v->integer);
}

std::optional<bool> bool_member(const util::JsonValue& obj,
                                std::string_view key, std::string* error) {
  const util::JsonValue* v = obj.get(key);
  if (v == nullptr) return std::nullopt;
  if (!v->is_bool()) {
    *error = "member '" + std::string(key) + "' must be a boolean";
    return std::nullopt;
  }
  return v->bool_value;
}

}  // namespace

bool parse_request(const std::string& line, Request* request,
                   std::string* error) {
  std::string parse_error;
  const auto doc = util::parse_json(line, &parse_error);
  if (!doc) {
    *error = "invalid JSON: " + parse_error;
    return false;
  }
  if (!doc->is_object()) {
    *error = "request must be a JSON object";
    return false;
  }
  const std::int64_t version = doc->get_int("schema_version", -1);
  if (version != kProtocolVersion) {
    *error = "unsupported schema_version (expected " +
             std::to_string(kProtocolVersion) + ")";
    return false;
  }

  Request req;
  req.id = doc->get_string("id");
  req.op = doc->get_string("op");
  if (req.op != "ping" && req.op != "stats" && req.op != "metrics" &&
      req.op != "trace" && req.op != "shutdown" && req.op != "synthesize" &&
      req.op != "synthesize_bm" && req.op != "analyze" &&
      req.op != "synthesize_incremental") {
    *error = "unknown op '" + req.op + "'";
    return false;
  }
  req.trace_id = doc->get_string("trace_id");
  req.design = doc->get_string("design");
  req.source = doc->get_string("source");
  req.bms = doc->get_string("bms");
  req.mode = doc->get_string("mode", "speed");
  if (req.mode != "speed" && req.mode != "area") {
    *error = "mode must be \"speed\" or \"area\"";
    return false;
  }
  req.format = doc->get_string("format", "json");
  if (req.format != "json" && req.format != "prometheus" &&
      req.format != "both") {
    *error = "format must be \"json\", \"prometheus\" or \"both\"";
    return false;
  }
  req.filter = doc->get_string("filter");
  {
    std::string member_error;
    if (const std::optional<int> last = int_member(*doc, "last",
                                                  &member_error)) {
      if (*last < 0) {
        *error = "member 'last' must be non-negative";
        return false;
      }
      req.last = *last;
    }
    if (!member_error.empty()) {
      *error = member_error;
      return false;
    }
  }
  if ((req.op == "synthesize" || req.op == "analyze") &&
      req.design.empty() == req.source.empty()) {
    *error = req.op + " needs exactly one of 'design' or 'source'";
    return false;
  }
  if (req.op == "synthesize_bm" && req.bms.empty()) {
    *error = "synthesize_bm needs 'bms'";
    return false;
  }
  if (req.op == "synthesize_incremental") {
    if (req.source.empty()) {
      *error = "synthesize_incremental needs 'source'";
      return false;
    }
    req.project = doc->get_string("project", "default");
    for (const char c : req.project) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-';
      if (!ok) {
        *error = "'project' must match [A-Za-z0-9_-]+";
        return false;
      }
    }
    if (req.project.empty() || req.project.size() > 64) {
      *error = "'project' must be 1..64 characters";
      return false;
    }
  }

  if (const util::JsonValue* opts = doc->get("options")) {
    if (!opts->is_object()) {
      *error = "'options' must be an object";
      return false;
    }
    std::string member_error;
    req.options.unoptimized = opts->get_bool("unoptimized", false);
    req.options.max_states = int_member(*opts, "max_states", &member_error);
    req.options.jobs = int_member(*opts, "jobs", &member_error);
    req.options.cache = bool_member(*opts, "cache", &member_error);
    req.options.strict = bool_member(*opts, "strict", &member_error);
    req.options.lint = bool_member(*opts, "lint", &member_error);
    if (const util::JsonValue* budget = opts->get("work_budget")) {
      if (!budget->is_number() || !budget->is_integer) {
        member_error = "member 'work_budget' must be an integer";
      } else {
        req.options.work_budget = budget->integer;
      }
    }
    req.options.verilog = opts->get_bool("verilog", false);
    req.options.sarif = opts->get_bool("sarif", false);
    req.options.no_analyze = opts->get_bool("no_analyze", false);
    if (!member_error.empty()) {
      *error = member_error;
      return false;
    }
  }
  *request = std::move(req);
  return true;
}

flow::FlowOptions apply_options(const RequestOptions& overrides,
                                long long default_work_budget,
                                minimalist::SynthCache* cache) {
  flow::FlowOptions options = overrides.unoptimized
                                  ? flow::FlowOptions::unoptimized()
                                  : flow::FlowOptions::optimized();
  if (overrides.max_states) options.max_states = *overrides.max_states;
  if (overrides.jobs) options.jobs = *overrides.jobs;
  options.cache_instance = overrides.cache.value_or(true) ? cache : nullptr;
  if (overrides.strict) options.strict = *overrides.strict;
  if (overrides.lint) options.lint = *overrides.lint;
  options.work_budget =
      overrides.work_budget ? *overrides.work_budget : default_work_budget;
  return options;
}

std::string reply_ok_ping(const ReplyIds& ids) {
  util::JsonWriter w;
  reply_head(w, ids, "ok");
  w.member("op", "ping");
  w.end_object();
  return w.str();
}

std::string reply_ok_stats(const ReplyIds& ids,
                           const std::string& raw_json) {
  util::JsonWriter w;
  reply_head(w, ids, "ok");
  w.member("op", "stats");
  w.key("stats").raw(raw_json);
  w.end_object();
  return w.str();
}

std::string reply_ok_metrics(const ReplyIds& ids,
                             const std::string* metrics_json,
                             const std::string* prometheus_text) {
  util::JsonWriter w;
  reply_head(w, ids, "ok");
  w.member("op", "metrics");
  if (metrics_json != nullptr) w.key("metrics").raw(*metrics_json);
  if (prometheus_text != nullptr) w.member("prometheus", *prometheus_text);
  w.end_object();
  return w.str();
}

std::string reply_ok_trace(const ReplyIds& ids,
                           const std::string& trace_json) {
  util::JsonWriter w;
  reply_head(w, ids, "ok");
  w.member("op", "trace");
  w.key("trace").raw(trace_json);
  w.end_object();
  return w.str();
}

std::string reply_ok_shutdown(const ReplyIds& ids) {
  util::JsonWriter w;
  reply_head(w, ids, "ok");
  w.member("op", "shutdown");
  w.member("draining", true);
  w.end_object();
  return w.str();
}

std::string reply_ok_result(const ReplyIds& ids,
                            const std::string& result_json,
                            const ReplyTimings& timings) {
  util::JsonWriter w;
  reply_head(w, ids, "ok");
  w.key("result").raw(result_json);
  reply_timings(w, timings);
  w.end_object();
  return w.str();
}

std::string reply_error(const ReplyIds& ids, const std::string& stage,
                        const std::string& rule, const std::string& message,
                        const ReplyTimings* timings) {
  util::JsonWriter w;
  reply_head(w, ids, "error");
  w.key("error").begin_object();
  w.member("stage", stage);
  w.member("rule", rule);
  w.member("message", message);
  w.end_object();
  if (timings != nullptr) reply_timings(w, *timings);
  w.end_object();
  return w.str();
}

std::string reply_overloaded(const ReplyIds& ids) {
  util::JsonWriter w;
  reply_head(w, ids, "overloaded");
  w.member("message", "admission queue full, retry later");
  w.end_object();
  return w.str();
}

std::string reply_bad_request(const ReplyIds& ids,
                              const std::string& message) {
  util::JsonWriter w;
  reply_head(w, ids, "bad_request");
  w.member("message", message);
  w.end_object();
  return w.str();
}

}  // namespace bb::serve
