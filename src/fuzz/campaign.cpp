#include "src/fuzz/campaign.hpp"

#include <chrono>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "src/balsa/compile.hpp"
#include "src/balsa/printer.hpp"
#include "src/fuzz/shrink.hpp"
#include "src/util/hash.hpp"
#include "src/util/io.hpp"
#include "src/util/json.hpp"
#include "src/util/prng.hpp"
#include "src/util/strings.hpp"

namespace bb::fuzz {

namespace {

/// Predicate-call budget per shrink.
constexpr int kShrinkTests = 200;

/// FNV-1a over a case tag, so every case has an independent stream (the
/// basis oracle.cpp's mix_channel uses).
std::uint64_t mix_case(std::uint64_t seed, const std::string& tag) {
  return seed ^ util::fnv1a64(tag, 1469598103934665603ull);
}

std::string one_line(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

/// Coarse failure signature the shrinker must preserve: the oracle
/// plus the *kind* of failure, with case-specific payloads (observed
/// values, controller names whose component ids shift as the design
/// shrinks) stripped.  Matching on the oracle alone would let a
/// "output values differ" case drift into an unrelated hang.
std::string failure_class(const OracleResult& outcome) {
  if (outcome.oracle == "conformance") {
    return outcome.detail.find("never allows") != std::string::npos
               ? "conformance/bm-containment"
               : "conformance/composition";
  }
  return outcome.oracle + "/" + outcome.detail.substr(0, outcome.detail.find(':'));
}

void read_vars(const balsa::Expr& e, std::set<std::string>& out) {
  if (e.kind == balsa::Expr::Kind::kVar) out.insert(e.var);
  if (e.lhs) read_vars(*e.lhs, out);
  if (e.rhs) read_vars(*e.rhs, out);
}

bool writes_any(const balsa::Command& c, const std::set<std::string>& vars) {
  if ((c.kind == balsa::Command::Kind::kAssign ||
       c.kind == balsa::Command::Kind::kReceive) &&
      vars.count(c.var)) {
    return true;
  }
  for (const balsa::CommandPtr& child : c.children) {
    if (writes_any(*child, vars)) return true;
  }
  if (c.body && writes_any(*c.body, vars)) return true;
  if (c.else_body && writes_any(*c.else_body, vars)) return true;
  for (const balsa::CaseAlt& alt : c.alts) {
    if (writes_any(*alt.body, vars)) return true;
  }
  return false;
}

/// Static termination discipline every generated program satisfies:
/// each while guard reads at least one variable its body writes.  The
/// shrinker must not step outside it — a candidate that loops forever
/// "fails" any timeout-shaped predicate for reasons unrelated to the
/// bug being minimized.
bool plausibly_terminating(const balsa::Command& c) {
  if (c.kind == balsa::Command::Kind::kLoop) return false;
  if (c.kind == balsa::Command::Kind::kWhile) {
    if (!c.guard || !c.body) return false;
    std::set<std::string> vars;
    read_vars(*c.guard, vars);
    if (vars.empty() || !writes_any(*c.body, vars)) return false;
  }
  for (const balsa::CommandPtr& child : c.children) {
    if (!plausibly_terminating(*child)) return false;
  }
  if (c.body && !plausibly_terminating(*c.body)) return false;
  if (c.else_body && !plausibly_terminating(*c.else_body)) return false;
  for (const balsa::CaseAlt& alt : c.alts) {
    if (!plausibly_terminating(*alt.body)) return false;
  }
  return true;
}

}  // namespace

std::uint64_t effective_seed(const FuzzOptions& options) {
  return util::resolve_seed(options.seed);
}

OracleResult check_design(const hsnet::Netlist& netlist,
                          const FuzzOptions& options,
                          std::uint64_t value_seed,
                          minimalist::SynthCache* cache) {
  OracleResult worst;
  worst.verdict = Verdict::kPass;
  const auto merge = [&worst](OracleResult next) {
    const auto rank = [](Verdict v) {
      switch (v) {
        case Verdict::kDiscrepancy: return 3;
        case Verdict::kSkipped: return 2;
        case Verdict::kRejected: return 1;
        case Verdict::kPass: return 0;
      }
      return 0;
    };
    if (rank(next.verdict) > rank(worst.verdict)) worst = std::move(next);
  };
  if (options.sim_oracle) {
    merge(differential_check(netlist, value_seed, cache));
    if (worst.verdict == Verdict::kDiscrepancy) return worst;
    // A design both flows reject has no circuits to check conformance
    // on either; classify it once and stop.
    if (worst.verdict == Verdict::kRejected) return worst;
  }
  if (options.conformance_oracle) {
    merge(conformance_check(netlist, options.max_states));
  }
  return worst;
}

namespace {

class CampaignRunner {
 public:
  explicit CampaignRunner(const FuzzOptions& options)
      : options_(options),
        seed_(effective_seed(options)),
        deadline_set_(options.time_budget_ms > 0),
        deadline_(std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options.time_budget_ms)) {}

  FuzzResult run() {
    FuzzResult result;
    result.seed = seed_;
    if (options_.balsa_mode) run_mode(result, "balsa");
    if (options_.netlist_mode && !result.truncated) {
      run_mode(result, "netlist");
    }
    return result;
  }

 private:
  bool out_of_time() const {
    return deadline_set_ && std::chrono::steady_clock::now() >= deadline_;
  }

  void run_mode(FuzzResult& result, const std::string& mode) {
    for (int i = 0; i < options_.count; ++i) {
      if (out_of_time()) {
        result.truncated = true;
        return;
      }
      const std::uint64_t case_seed =
          mix_case(seed_, mode + ":" + std::to_string(i));
      if (mode == "balsa") {
        run_balsa_case(result, i, case_seed);
      } else {
        run_netlist_case(result, i, case_seed);
      }
      ++result.cases_run;
    }
  }

  void tally(FuzzResult& result, const OracleResult& outcome) {
    switch (outcome.verdict) {
      case Verdict::kPass: ++result.passed; break;
      case Verdict::kRejected: ++result.rejected; break;
      case Verdict::kSkipped: ++result.skipped; break;
      case Verdict::kDiscrepancy: ++result.discrepancies; break;
    }
  }

  void record(FuzzResult& result, const std::string& mode, int index,
              const OracleResult& outcome, std::string design,
              const std::string& extension) {
    tally(result, outcome);
    if (outcome.verdict != Verdict::kDiscrepancy &&
        outcome.verdict != Verdict::kSkipped) {
      return;
    }
    CaseReport report;
    report.mode = mode;
    report.index = index;
    report.oracle = outcome.oracle;
    report.verdict = std::string(verdict_name(outcome.verdict));
    report.detail = one_line(outcome.detail);
    report.controller = outcome.controller;
    report.counterexample = outcome.counterexample;
    report.design = std::move(design);
    if (outcome.verdict == Verdict::kDiscrepancy &&
        !options_.repro_dir.empty()) {
      Reproducer repro;
      repro.mode = mode;
      repro.oracle = outcome.oracle;
      repro.expect = "known-bad";
      repro.note = report.detail;
      repro.design = report.design;
      const std::string name = "s" + std::to_string(seed_) + "-" + mode +
                               std::to_string(index) + extension;
      std::filesystem::create_directories(options_.repro_dir);
      const std::string path = options_.repro_dir + "/" + name;
      util::write_file_atomic(
          path, format_reproducer(repro, seed_, index, report.detail));
      report.repro_path = path;
    }
    result.reports.push_back(std::move(report));
  }

  void run_balsa_case(FuzzResult& result, int index, std::uint64_t case_seed) {
    GenOptions gen_options;
    gen_options.max_commands = options_.size;
    util::SplitMix64 rng(case_seed);
    const balsa::Procedure proc = generate_procedure(rng, gen_options);

    const auto check = [&](const balsa::Procedure& p) -> OracleResult {
      try {
        return check_design(balsa::compile(p), options_, case_seed, &cache_);
      } catch (const std::exception& e) {
        // The generator promises compilable programs; a compile crash
        // is itself a finding.
        OracleResult r;
        r.verdict = Verdict::kDiscrepancy;
        r.oracle = "compile";
        r.detail = std::string("compiler rejected a legal program: ") +
                   e.what();
        return r;
      }
    };
    OracleResult outcome = check(proc);
    std::string design = balsa::to_source(proc);
    if (outcome.verdict == Verdict::kDiscrepancy) {
      const std::string wanted = failure_class(outcome);
      const balsa::Procedure minimized = shrink_procedure(
          proc,
          [&](const balsa::Procedure& candidate) {
            if (!plausibly_terminating(*candidate.body)) return false;
            const OracleResult r = check(candidate);
            return r.verdict == Verdict::kDiscrepancy &&
                   failure_class(r) == wanted;
          },
          kShrinkTests);
      outcome = check(minimized);
      design = balsa::to_source(minimized);
    }
    record(result, "balsa", index, outcome, std::move(design), ".balsa");
  }

  void run_netlist_case(FuzzResult& result, int index,
                        std::uint64_t case_seed) {
    GenOptions gen_options;
    gen_options.max_commands = options_.size;
    util::SplitMix64 rng(case_seed);
    const RecipeNode recipe = generate_recipe(rng, gen_options);

    const auto check = [&](const RecipeNode& node) {
      return check_design(build_recipe(node), options_, case_seed, &cache_);
    };
    OracleResult outcome = check(recipe);
    std::string design = recipe_to_text(recipe);
    if (outcome.verdict == Verdict::kDiscrepancy) {
      const std::string wanted = failure_class(outcome);
      const RecipeNode minimized = shrink_recipe(
          recipe,
          [&](const RecipeNode& candidate) {
            const OracleResult r = check(candidate);
            return r.verdict == Verdict::kDiscrepancy &&
                   failure_class(r) == wanted;
          },
          kShrinkTests);
      outcome = check(minimized);
      design = recipe_to_text(minimized);
    }
    record(result, "netlist", index, outcome, std::move(design), ".recipe");
  }

  const FuzzOptions& options_;
  /// The campaign's synthesis memo, shared by every case and shrink step.
  minimalist::SynthCache cache_;
  std::uint64_t seed_;
  bool deadline_set_;
  std::chrono::steady_clock::time_point deadline_;
};

}  // namespace

FuzzResult run_fuzz_campaign(const FuzzOptions& options) {
  return CampaignRunner(options).run();
}

std::string FuzzResult::to_text() const {
  std::string out = "fuzz campaign: seed " + std::to_string(seed) + ", " +
                    std::to_string(cases_run) + " case(s)";
  if (truncated) out += " (truncated by time budget)";
  out += "\n  passed " + std::to_string(passed) + ", rejected " +
         std::to_string(rejected) + ", skipped " + std::to_string(skipped) +
         ", discrepancies " + std::to_string(discrepancies) + "\n";
  for (const CaseReport& report : reports) {
    out += "  [" + report.verdict + "] " + report.mode + " case " +
           std::to_string(report.index) + " (" + report.oracle +
           "): " + report.detail + "\n";
    if (!report.design.empty() && report.verdict == "discrepancy") {
      out += "    minimized: " + one_line(report.design) + "\n";
    }
    if (!report.repro_path.empty()) {
      out += "    reproducer: " + report.repro_path + "\n";
    }
  }
  return out;
}

std::string FuzzResult::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", kFuzzCampaignSchemaVersion);
  w.member("seed", seed);
  w.member("cases_run", cases_run);
  w.member("passed", passed);
  w.member("rejected", rejected);
  w.member("skipped", skipped);
  w.member("discrepancies", discrepancies);
  w.member("truncated", truncated);
  w.key("reports");
  w.begin_array();
  for (const CaseReport& report : reports) {
    w.begin_object();
    w.member("mode", report.mode);
    w.member("index", report.index);
    w.member("oracle", report.oracle);
    w.member("verdict", report.verdict);
    w.member("detail", report.detail);
    if (!report.controller.empty()) {
      w.member("controller", report.controller);
    }
    w.member("design", report.design);
    if (!report.repro_path.empty()) {
      w.member("reproducer", report.repro_path);
    }
    if (!report.counterexample.empty()) {
      w.key("counterexample");
      w.begin_array();
      for (const std::string& label : report.counterexample) w.value(label);
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string format_reproducer(const Reproducer& repro, std::uint64_t seed,
                              int index, const std::string& detail) {
  std::string out = "-- bb-fuzz reproducer (minimized)\n";
  out += "-- seed: " + std::to_string(seed) +
         " case: " + std::to_string(index) + "\n";
  out += "-- mode: " + repro.mode + "\n";
  out += "-- oracle: " + repro.oracle + "\n";
  if (repro.expect == "clean") {
    out += "-- expect: clean\n";
  } else {
    out += "-- expect: known-bad: " + one_line(repro.note.empty() ? detail
                                                                  : repro.note) +
           "\n";
  }
  out += repro.design;
  if (out.empty() || out.back() != '\n') out += "\n";
  return out;
}

Reproducer parse_reproducer(const std::string& path,
                            const std::string& content) {
  Reproducer repro;
  repro.path = path;
  std::size_t pos = 0;
  std::size_t body_start = 0;
  while (pos < content.size()) {
    const std::size_t eol = content.find('\n', pos);
    const std::string_view line(content.data() + pos,
                                (eol == std::string::npos ? content.size()
                                                          : eol) -
                                    pos);
    const std::string_view trimmed = util::trim(line);
    if (!util::starts_with(trimmed, "--")) break;
    const std::string_view header = util::trim(trimmed.substr(2));
    const auto take = [&](std::string_view key) -> std::string {
      if (!util::starts_with(header, key)) return "";
      return std::string(util::trim(header.substr(key.size())));
    };
    if (std::string v = take("mode:"); !v.empty()) repro.mode = v;
    if (std::string v = take("oracle:"); !v.empty()) repro.oracle = v;
    if (std::string v = take("expect:"); !v.empty()) {
      if (util::starts_with(v, "known-bad")) {
        repro.expect = "known-bad";
        const std::size_t colon = v.find(':');
        if (colon != std::string::npos) {
          repro.note = std::string(util::trim(
              std::string_view(v).substr(colon + 1)));
        }
      } else {
        repro.expect = v;
      }
    }
    if (eol == std::string::npos) {
      pos = content.size();
    } else {
      pos = eol + 1;
    }
    body_start = pos;
  }
  repro.design = content.substr(body_start);
  if (repro.mode.empty()) {
    throw std::runtime_error(path + ": missing '-- mode:' header");
  }
  if (repro.expect.empty()) {
    throw std::runtime_error(path + ": missing '-- expect:' header");
  }
  if (util::trim(repro.design).empty()) {
    throw std::runtime_error(path + ": empty design body");
  }
  return repro;
}

}  // namespace bb::fuzz
