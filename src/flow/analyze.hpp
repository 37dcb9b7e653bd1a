// Non-aborting whole-design analysis driver.
//
// synthesize_control treats Error-severity findings as fatal (LintError)
// because its job is to produce a netlist.  Analysis tools (bb-lint, the
// serve `analyze` op) want the opposite: run EVERY lint and semantic pass
// over EVERY intermediate representation and report all findings at
// once.  analyze_control walks the same IR chain as the flow — handshake
// netlist, clustered CH programs, Burst-Mode machines, Petri nets,
// two-level logic, mapped gates — merging each pass's report and never
// aborting; a controller whose synthesis crashes outright is recorded in
// `skipped` (plus an FL005 warning) and its later layers are left
// unchecked.
#pragma once

#include <string>
#include <vector>

#include "src/flow/flow.hpp"

namespace bb::flow {

struct AnalyzeResult {
  lint::Report report;
  /// Controllers whose synthesis or mapping threw; the gate-level passes
  /// did not see their logic.
  std::vector<std::string> skipped;
};

/// Runs the full pass pipeline over one design.  The per-layer lint
/// passes always run; `deep` additionally enables the semantic passes
/// (AN/PN/NL005-NL007).  `lint_options` (suppressions, severity
/// overrides, baseline, limits) applies to every pass.
AnalyzeResult analyze_control(const hsnet::Netlist& netlist,
                              const FlowOptions& options,
                              const lint::LintOptions& lint_options,
                              bool deep);

}  // namespace bb::flow
