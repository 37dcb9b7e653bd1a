// The cross-layer static-analysis engine.
//
// One lint pass per intermediate representation of the flow (Fig. 1):
//   lint_handshake  handshake-component netlists      rules HS001-HS005
//   lint_bm         compiled Burst-Mode machines      rules BM001-BM007
//   lint_two_level  synthesized two-level logic       rules MN001-MN003
//   lint_gates      mapped gate netlists              rules NL001-NL004
//
// Each pass returns a lint::Report (src/lint/diag.hpp).  The flow driver
// (src/flow) runs all passes by default, aborts on Error-severity
// findings and records the full report; the `bb-lint` tool runs them
// standalone on any design.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/bm/spec.hpp"
#include "src/hsnet/netlist.hpp"
#include "src/lint/diag.hpp"
#include "src/minimalist/synth.hpp"
#include "src/netlist/gates.hpp"

namespace bb::lint {

struct LintOptions {
  /// Rule ids to drop (per-rule suppression).
  std::vector<std::string> suppress;
  /// Per-rule severity overrides (rule id -> severity); they win over
  /// both registered defaults and pass-side escalations.
  std::vector<std::pair<std::string, Severity>> severity;
  /// Accepted findings (exact rule + object pairs) that should not be
  /// reported again; usually loaded from a baseline file.
  std::vector<BaselineEntry> baseline;
  /// NL004 threshold: maximum gate inputs one net may drive.
  int fanout_limit = 48;
  /// NL005/NL006 cap: the semantic netlist audit evaluates each mapped
  /// cone exhaustively over its variables; cones needing more than this
  /// many evaluations are skipped with an NL007 note instead of burning
  /// exponential time.
  std::size_t cone_eval_limit = 1u << 16;
};

/// Seeds a report with the options' suppressions, severity overrides and
/// baseline.
Report make_report(const LintOptions& options);

/// Handshake layer: dangling/unconnected channels (HS001/HS002),
/// over-connected channels (HS003), active/passive port-direction
/// mismatches (HS004) and components unreachable from every external
/// channel (HS005).
Report lint_handshake(const hsnet::Netlist& netlist,
                      const LintOptions& options = {});

/// CH/BM layer: wraps bm::validate (BM001-BM007) so Burst-Mode
/// well-formedness findings flow through the shared framework.
Report lint_bm(const bm::Spec& spec, const LintOptions& options = {});

/// Two-level logic layer: screens every product of the synthesized logic
/// against the hazard-freedom obligations of the flow table synthesis
/// extracted (MN001 dynamic hazards, MN002 static hazards, MN003 shape
/// mismatches).  The flow runs it once per controller, on a cache miss;
/// the cache admits only controllers it finds clean.
Report lint_two_level(const minimalist::SynthesizedController& ctrl,
                      const minimalist::MachineSpec& machine,
                      const LintOptions& options = {});

/// Gate layer: multiple drivers (NL001), floating gate inputs (NL002),
/// combinational cycles not broken by a DEL/DOUT or state-holding cell
/// (NL003), and fanout-limit violations (NL004).
Report lint_gates(const netlist::GateNetlist& netlist,
                  const LintOptions& options = {});

/// True if port `index` of the component is the active (handshake
/// initiating) end of its channel; false for passive ends.  Mirrors the
/// port tables of src/hsnet/component.hpp and the activities assigned by
/// the Balsa-to-CH translation.
bool port_is_active(const hsnet::Component& component, std::size_t index);

}  // namespace bb::lint
