#include "src/fuzz/proto.hpp"

#include <chrono>
#include <exception>
#include <string_view>

#include "src/bm/parse.hpp"
#include "src/minimalist/synth.hpp"
#include "src/serve/codec.hpp"
#include "src/serve/protocol.hpp"
#include "src/util/json.hpp"
#include "src/util/json_parse.hpp"
#include "src/util/prng.hpp"
#include "src/util/strings.hpp"

namespace bb::fuzz {

namespace {

using Clock = std::chrono::steady_clock;

/// Escaped, bounded rendering of raw fuzz bytes for reports (the JSON
/// artifact must stay valid and small whatever the input was).
std::string preview(std::string_view input) {
  constexpr std::size_t kMax = 80;
  std::string out;
  for (std::size_t i = 0; i < input.size() && i < kMax; ++i) {
    const unsigned char c = static_cast<unsigned char>(input[i]);
    if (c >= 0x20 && c < 0x7f && c != '\\' && c != '"') {
      out.push_back(static_cast<char>(c));
    } else {
      static const char* hex = "0123456789abcdef";
      out += "\\x";
      out.push_back(hex[c >> 4]);
      out.push_back(hex[c & 0xf]);
    }
  }
  if (input.size() > kMax) out += "...";
  return out;
}

// ---- seeded malformed-input generator ----

/// The valid request every request-target mutation starts from, so
/// mutations explore the boundary of validity rather than deep garbage
/// space only.
std::string base_request(util::SplitMix64& rng) {
  static const char* kOps[] = {"ping", "stats", "synthesize",
                               "synthesize_bm", "analyze"};
  const char* op = kOps[rng.below(5)];
  util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", 1);
  w.member("id", "f" + std::to_string(rng.below(1000)));
  w.member("op", op);
  if (std::string_view(op) == "synthesize" ||
      std::string_view(op) == "analyze") {
    w.member("source", "procedure p () begin sync end");
  } else if (std::string_view(op) == "synthesize_bm") {
    w.member("bms", "name w\ninput r 0\noutput a 0\n0 1 r+ | a+\n1 0 r- | a-\n");
  }
  w.end_object();
  return w.str();
}

/// In-place corruption families shared by every target: truncation,
/// NUL injection, invalid UTF-8, byte flips, chunk duplication.
std::string corrupt(std::string text, util::SplitMix64& rng) {
  const int edits = 1 + static_cast<int>(rng.below(3));
  for (int e = 0; e < edits; ++e) {
    if (text.empty()) break;
    switch (rng.below(6)) {
      case 0:  // truncate
        text.resize(rng.below(text.size() + 1));
        break;
      case 1:  // embedded NUL
        text.insert(rng.below(text.size() + 1), 1, '\0');
        break;
      case 2: {  // invalid UTF-8: overlong lead / bare continuation / 0xff
        static const char* kBad[] = {"\xc0\xaf", "\x80", "\xff\xfe",
                                     "\xed\xa0\x80"};
        text.insert(rng.below(text.size() + 1), kBad[rng.below(4)]);
        break;
      }
      case 3:  // flip one byte
        text[rng.below(text.size())] =
            static_cast<char>(rng.below(256));
        break;
      case 4: {  // duplicate a chunk
        const std::size_t from = rng.below(text.size());
        const std::size_t len = rng.below(text.size() - from) + 1;
        text.insert(rng.below(text.size() + 1), text.substr(from, len));
        break;
      }
      case 5:  // delete a chunk
        text.erase(rng.below(text.size()),
                   rng.below(16) + 1);
        break;
    }
  }
  return text;
}

/// A nesting bomb: enough unclosed depth to smash an unguarded
/// recursive-descent parser's stack.
std::string depth_bomb(util::SplitMix64& rng) {
  const std::size_t depth = 64 + rng.below(8192);
  const bool arrays = rng.below(2) == 0;
  std::string text;
  text.reserve(arrays ? depth : depth * 5 + 16);
  for (std::size_t i = 0; i < depth; ++i) {
    text += arrays ? "[" : "{\"a\":";
  }
  if (rng.below(2) == 0) text += "1";  // sometimes well-formed at the core
  return text;
}

/// An overlong string member (and key), probing length limits.
std::string overlong(util::SplitMix64& rng) {
  const std::size_t len = 1024 + rng.below(1 << 18);
  std::string text = "{\"op\":\"";
  text.append(len, 'a');
  if (rng.below(2) == 0) text += "\"}";  // valid JSON, hostile size
  return text;
}

std::string random_garbage(util::SplitMix64& rng) {
  std::string text(rng.below(256) + 1, '\0');
  for (char& c : text) c = static_cast<char>(rng.below(256));
  return text;
}

std::string next_input(const std::string& base, util::SplitMix64& rng) {
  switch (rng.below(8)) {
    case 0:
      return depth_bomb(rng);
    case 1:
      return overlong(rng);
    case 2:
      return random_garbage(rng);
    default:  // mutation of a valid document dominates the mix
      return corrupt(base, rng);
  }
}

}  // namespace

std::string ProtoFuzzResult::to_text() const {
  std::string out = "proto-fuzz: seed=" + std::to_string(seed) +
                    " cases=" + std::to_string(cases_run) +
                    " accepted=" + std::to_string(accepted) +
                    " rejected=" + std::to_string(rejected) +
                    " violations=" + std::to_string(violations) +
                    (truncated ? " (truncated)" : "") + "\n";
  for (const ProtoCaseReport& r : reports) {
    out += "  VIOLATION " + r.target + "#" + std::to_string(r.index) + ": " +
           r.detail + "\n    input: " + r.input_preview + "\n";
  }
  return out;
}

std::string ProtoFuzzResult::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", kProtoFuzzSchemaVersion);
  w.member("kind", "proto-fuzz");
  w.member("seed", seed);
  w.member("cases_run", cases_run);
  w.member("accepted", accepted);
  w.member("rejected", rejected);
  w.member("violations", violations);
  w.member("truncated", truncated);
  w.key("reports").begin_array();
  for (const ProtoCaseReport& r : reports) {
    w.begin_object();
    w.member("target", r.target);
    w.member("index", r.index);
    w.member("detail", r.detail);
    w.member("input_preview", r.input_preview);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

ProtoFuzzResult run_proto_fuzz(const ProtoFuzzOptions& options) {
  ProtoFuzzResult result;
  result.seed = util::resolve_seed(options.seed);
  const auto started = Clock::now();
  const auto expired = [&] {
    if (options.time_budget_ms <= 0) return false;
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               Clock::now() - started)
               .count() >= options.time_budget_ms;
  };

  // The valid codec document mutations start from: one real serialized
  // controller (a 2-state wire handshake — tiny but structurally
  // complete: codec version, signal tables, cube lists).
  const std::string codec_base = serve::serialize_controller(
      minimalist::synthesize(bm::parse_bms("name w\n"
                                           "input r 0\n"
                                           "output a 0\n"
                                           "0 1 r+ | a+\n"
                                           "1 0 r- | a-\n")));

  const auto violation = [&](const char* target, int index,
                             std::string detail, const std::string& input) {
    ++result.violations;
    ProtoCaseReport r;
    r.target = target;
    r.index = index;
    r.detail = std::move(detail);
    r.input_preview = preview(input);
    result.reports.push_back(std::move(r));
  };

  // ---- target: util::parse_json ----
  {
    util::SplitMix64 rng(result.seed ^ 0x6a736f6eull);  // "json"
    std::string base = base_request(rng);
    for (int i = 0; i < options.count && !expired(); ++i) {
      const std::string input = next_input(base, rng);
      ++result.cases_run;
      try {
        std::string error;
        const auto doc = util::parse_json(input, &error);
        if (doc) {
          ++result.accepted;
        } else if (error.empty()) {
          violation("json", i, "rejected without a structured error", input);
        } else {
          ++result.rejected;
        }
      } catch (const std::exception& e) {
        violation("json", i, std::string("threw: ") + e.what(), input);
      }
    }
  }

  // ---- target: serve::parse_request ----
  {
    util::SplitMix64 rng(result.seed ^ 0x72657175ull);  // "requ"
    for (int i = 0; i < options.count && !expired(); ++i) {
      const std::string base = base_request(rng);
      const std::string input = next_input(base, rng);
      ++result.cases_run;
      try {
        serve::Request req;
        std::string error;
        if (serve::parse_request(input, &req, &error)) {
          ++result.accepted;
          if (req.op.empty()) {
            violation("request", i, "accepted a request with no op", input);
          }
        } else if (error.empty()) {
          violation("request", i, "rejected without a structured error",
                    input);
        } else {
          ++result.rejected;
        }
      } catch (const std::exception& e) {
        violation("request", i, std::string("threw: ") + e.what(), input);
      }
    }
  }

  // ---- target: serve::deserialize_controller ----
  {
    util::SplitMix64 rng(result.seed ^ 0x636f6465ull);  // "code"
    for (int i = 0; i < options.count && !expired(); ++i) {
      const std::string input = next_input(codec_base, rng);
      ++result.cases_run;
      try {
        std::string error;
        const auto ctrl = serve::deserialize_controller(input, &error);
        if (ctrl) {
          ++result.accepted;
          // Round-trip law: anything accepted must reserialize to a
          // document the codec accepts again (the disk cache checksums
          // rendered bytes, so accept-but-unrenderable would poison it).
          const std::string again = serve::serialize_controller(*ctrl);
          std::string err2;
          if (!serve::deserialize_controller(again, &err2)) {
            violation("codec", i,
                      "accepted input whose reserialization fails: " + err2,
                      input);
          }
        } else if (error.empty()) {
          violation("codec", i, "rejected without a structured error", input);
        } else {
          ++result.rejected;
        }
      } catch (const std::exception& e) {
        violation("codec", i, std::string("threw: ") + e.what(), input);
      }
    }
  }

  result.truncated = expired();
  return result;
}

}  // namespace bb::fuzz
