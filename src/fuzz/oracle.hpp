// The two soundness oracles of the differential fuzzer.
//
// Simulation agreement: one design is pushed through the full flow
// twice — clustering on (FlowOptions::optimized) and off
// (FlowOptions::unoptimized) — and both gate-level circuits run against
// the same deterministic testbench (seeded per-channel value streams).
// The observable behaviour must agree: completion, the value sequence
// on every output channel, and the handshake counts on every sync and
// input channel.  Because generated designs are race-free by
// construction, every per-channel sequence is determined by program
// order alone, so any disagreement is a soundness bug in the
// optimization or synthesis pipeline (or a flow crash on one side
// only).
//
// Conformance: every clustered controller the optimizer produces is
// checked against the composition of the original member programs with
// the internalized channels hidden (trace::verify_composition, the
// Section 4.3 check), and against the trace language of its own
// compiled Burst-Mode machine (trace::bm_spec_lts).  Counterexamples
// are minimal by construction (BFS product walk).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/flow/flow.hpp"
#include "src/hsnet/netlist.hpp"
#include "src/opt/cluster.hpp"

namespace bb::fuzz {

/// What one flow + simulation run of a design observed.
struct SimObservation {
  bool flow_error = false;      ///< the flow threw before simulation
  std::string flow_error_text;  ///< what() of the failure
  bool completed = false;       ///< activation handshake finished, quiescent
  std::string status;           ///< sim::run_status_name of the run
  /// Values pushed on every external output channel, in arrival order.
  std::map<std::string, std::vector<std::uint64_t>> outputs;
  /// Completed handshakes per external sync channel.
  std::map<std::string, int> sync_counts;
  /// Values served per external input channel.
  std::map<std::string, int> pull_counts;

  std::string describe() const;
};

/// Flow + simulate one design variant.  `value_seed` drives the
/// per-channel input value streams (FNV-mixed with the channel name, so
/// every channel has its own deterministic stream).  The simulation
/// stops at 200 us or 4 M events, whichever comes first.
SimObservation observe(const hsnet::Netlist& netlist,
                       const flow::FlowOptions& options,
                       std::uint64_t value_seed);

/// "" when the observations agree; otherwise a one-line description of
/// the first difference.
std::string compare_observations(const SimObservation& optimized,
                                 const SimObservation& baseline);

enum class Verdict {
  kPass,          ///< oracle satisfied
  kDiscrepancy,   ///< soundness violation: optimized != reference
  kRejected,      ///< both variants rejected the design identically
  kSkipped,       ///< oracle could not decide (state explosion etc.)
};

std::string_view verdict_name(Verdict verdict);

struct OracleResult {
  Verdict verdict = Verdict::kPass;
  std::string oracle;      ///< "sim" or "conformance"
  std::string detail;      ///< human-readable description
  std::string controller;  ///< conformance: offending clustered controller
  std::vector<std::string> counterexample;  ///< minimal trace, if any
};

/// Runs the differential-simulation oracle on one design.  Both flows
/// synthesize through `cache` when the caller hands one in (a campaign
/// shares one across its cases); nullptr = no memo.
OracleResult differential_check(const hsnet::Netlist& netlist,
                                std::uint64_t value_seed,
                                minimalist::SynthCache* cache = nullptr);

/// The member programs of one multi-member clustered controller and the
/// channels its clustering internalized: what the conformance oracle
/// composes and hides.  Members named in `originals` point into it; the
/// T2 fragments absorbed from one Call are rebuilt as a single
/// mutually-exclusive program owned by `fragments`.  Throws
/// std::runtime_error on a member it cannot resolve.
struct ClusterMembers {
  std::vector<ch::Program> fragments;
  std::vector<const ch::Expr*> members;
  std::vector<std::string> hidden;
};
ClusterMembers cluster_members(const hsnet::Netlist& netlist,
                               const std::vector<ch::Program>& originals,
                               const opt::ClusteredProgram& cp);

/// Runs the conformance oracle: re-derives the clustering for the
/// design's control partition and checks every multi-member controller
/// against its composed members, plus every controller against its BM
/// machine's trace language.  Each reachability exploration is bounded
/// at 2^14 states; blowing the bound yields kSkipped, never a silent
/// pass.
OracleResult conformance_check(const hsnet::Netlist& netlist,
                               int max_states = 40);

}  // namespace bb::fuzz
