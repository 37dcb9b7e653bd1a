// bb-lint — standalone static analysis for any design in the flow.
//
// Compiles a mini-Balsa source (or a built-in evaluation design) and runs
// every lint AND semantic-analysis pass over every intermediate
// representation it produces:
//
//   handshake netlist      HS001-HS005  (dangling channels, direction
//                                        mismatches, unreachable parts)
//   Burst-Mode machines    BM001-BM007  (well-formedness, determinism,
//                                        polarity alternation)
//                          AN001-AN004  (level-sensitive legality,
//                                        entry-point uniqueness, dead
//                                        behaviour)
//   Petri nets             PN001-PN004  (structural deadlock/liveness,
//                                        no reachability graph)
//   two-level logic        MN001-MN003  (function-hazard screen)
//   mapped gate netlist    NL001-NL004  (drivers, floating inputs,
//                                        combinational cycles, fanout)
//                          NL005-NL007  (hazard-non-increasing mapping
//                                        audit against the covers)
//
// Usage:
//   bb-lint <file.balsa|design|all> [--json] [--sarif FILE]
//           [--severity RULE=SEV[,...]] [--baseline FILE]
//           [--write-baseline FILE] [--max-warnings N] [--no-analyze]
//           [--unoptimized] [--max-states N] [--fanout-limit N]
//           [--suppress ID[,ID...]] [--trace FILE] [--metrics FILE]
//
// Exit status: 0 clean, 1 Error-severity findings (or warnings above
// --max-warnings, or a stage crashed), 2 usage.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/balsa/compile.hpp"
#include "src/balsa/parser.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/analyze.hpp"
#include "src/flow/flow.hpp"
#include "src/lint/lint.hpp"
#include "src/lint/sarif.hpp"
#include "src/obs/session.hpp"
#include "src/tools/cli.hpp"
#include "src/util/io.hpp"
#include "src/util/strings.hpp"

namespace {

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bb-lint: cannot write '" << path << "'\n";
    std::exit(1);
  }
  out << content;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool analyze = true;
  bool unoptimized = false;
  std::string sarif_path;
  std::string baseline_path;
  std::string write_baseline_path;
  std::vector<std::string> severities;
  std::vector<std::string> suppressions;
  long long max_warnings = -1;  // -1 = unlimited
  int max_states = bb::flow::FlowOptions().max_states;
  bb::lint::LintOptions lint_options;
  bb::tools::Cli cli("bb-lint", "<file.balsa|design|all>", 1, 1,
                     "built-in designs: systolic wagging stack ssem (or "
                     "'all')\nSEV is one of: note, warning, error");
  cli.flag("--json", &json)
      .text("--sarif", "FILE", &sarif_path)
      .text("--severity", "RULE=SEV[,...]", &severities)
      .text("--baseline", "FILE", &baseline_path)
      .text("--write-baseline", "FILE", &write_baseline_path)
      .integer("--max-warnings", 0, 1000000000, &max_warnings)
      .flag("--no-analyze", &analyze, false)
      .flag("--unoptimized", &unoptimized)
      .integer("--max-states", 0, 1000000, &max_states)
      .integer("--fanout-limit", 0, 1000000, &lint_options.fanout_limit)
      .text("--suppress", "ID[,ID...]", &suppressions)
      .observability();
  const std::string target = cli.parse(argc, argv)[0];

  for (const std::string& list : severities) {
    for (const std::string& entry : bb::util::split(list, ",")) {
      const std::size_t eq = entry.find('=');
      if (eq == std::string::npos || eq == 0) {
        cli.fail("--severity expects RULE=SEV, got '" + entry + "'");
      }
      const std::string name = entry.substr(eq + 1);
      bb::lint::Severity severity = bb::lint::Severity::kError;
      if (name == "note") {
        severity = bb::lint::Severity::kNote;
      } else if (name == "warning") {
        severity = bb::lint::Severity::kWarning;
      } else if (name != "error") {
        cli.fail("unknown severity '" + name +
                 "' (expected note, warning or error)");
      }
      lint_options.severity.emplace_back(entry.substr(0, eq), severity);
    }
  }
  for (const std::string& list : suppressions) {
    for (const std::string& rule : bb::util::split(list, ",")) {
      lint_options.suppress.push_back(rule);
    }
  }
  if (!baseline_path.empty()) {
    const auto text = bb::util::read_file(baseline_path);
    if (!text) {
      std::cerr << "bb-lint: cannot open baseline '" << baseline_path
                << "'\n";
      return 1;
    }
    lint_options.baseline = bb::lint::parse_baseline(*text);
  }

  bb::flow::FlowOptions options = unoptimized
                                      ? bb::flow::FlowOptions::unoptimized()
                                      : bb::flow::FlowOptions::optimized();
  options.max_states = max_states;

  // The lint flow mirrors synthesize_control's IR chain, so the spans
  // line up with bbbc's.
  bb::obs::Session session(cli.trace_path(), cli.metrics_path());

  std::vector<std::string> names;
  if (target == "all") {
    for (const auto* d : bb::designs::all_designs()) names.push_back(d->name);
  } else {
    names.push_back(target);
  }

  bool errors = false;
  std::size_t warnings = 0;
  std::vector<std::pair<std::string, bb::lint::Report>> reports;
  try {
    for (const std::string& name : names) {
      // A source may declare several procedures; each is an independent
      // unit with its own netlist, so lint them one by one.
      const auto procedures =
          bb::balsa::parse_program(bb::tools::load_design("bb-lint", name));
      for (const auto& procedure : procedures) {
        const std::string label =
            procedures.size() > 1 ? name + ":" + procedure.name : name;
        const auto net = bb::balsa::compile(procedure);
        auto analyzed =
            bb::flow::analyze_control(net, options, lint_options, analyze);
        if (json) {
          std::cout << analyzed.report.to_json() << "\n";
        } else {
          if (names.size() > 1 || procedures.size() > 1) {
            std::cout << "== " << label << " ==\n";
          }
          std::cout << analyzed.report.to_text();
        }
        errors = errors || analyzed.report.has_errors();
        warnings += analyzed.report.count(bb::lint::Severity::kWarning);
        reports.emplace_back(label, std::move(analyzed.report));
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "bb-lint: " << e.what() << "\n";
    return 1;
  }

  if (!sarif_path.empty()) {
    std::vector<bb::lint::SarifInput> inputs;
    for (const auto& [name, report] : reports) {
      inputs.push_back(bb::lint::SarifInput{name, &report});
    }
    const std::string sarif = bb::lint::to_sarif(inputs);
    if (sarif_path == "-") {
      std::cout << sarif << "\n";
    } else {
      write_file(sarif_path, sarif);
    }
  }

  if (!write_baseline_path.empty()) {
    bb::lint::Report merged;
    for (const auto& [name, report] : reports) merged.merge(report);
    write_file(write_baseline_path, merged.to_baseline());
  }

  if (max_warnings >= 0 &&
      warnings > static_cast<std::size_t>(max_warnings)) {
    std::cerr << "bb-lint: " << warnings << " warning(s) exceed the "
              << "--max-warnings threshold of " << max_warnings << "\n";
    return 1;
  }
  return errors ? 1 : 0;
}
