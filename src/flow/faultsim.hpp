// Gate-level fault-injection campaign over the Section 6 evaluation
// designs (the robustness harness around the flow).
//
// For each design the campaign
//   1. synthesizes and simulates a healthy baseline run with trace
//      monitors attached: one monitor per clustered controller, watching
//      the controller's interface wires and recording every signal edge
//      as a "<wire>+/-" label;
//   2. derives each controller's specified trace language from its
//      compiled Burst-Mode machine (trace::bm_spec_lts -> DFA) and
//      calibrates each monitor against the healthy trace: full
//      conformance earns an unlimited check horizon, a late divergence
//      (hazard pulses under the fast testbench environment) bounds the
//      horizon to the conforming prefix, and an immediate mismatch drops
//      the monitor;
//   3. injects a deterministic fault list (targeted + PRNG-sampled
//      stuck-ats, SEU bit flips on state-holding outputs, one whole-
//      netlist delay perturbation), one fault plan per fresh simulation;
//   4. classifies every run: a fault is *detected* when the run
//      deadlocks, hangs, produces wrong outputs, or a trace monitor
//      rejects the observed behaviour (trace::reject_prefix yields a
//      minimal counterexample); otherwise it was *silently tolerated*.
//
// Everything is deterministic for a given seed: the fault list, the
// simulations, and the JSON artifact (which carries no wall-clock data),
// so two same-seed campaign runs are byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/flow/benchmarks.hpp"

namespace bb::flow {

/// Schema of CampaignResult::to_json.  Version 2: util::SplitMix64::below
/// switched from modulo reduction to unbiased rejection sampling, so the
/// PRNG-sampled fault list for a given seed differs from version 1.
inline constexpr int kFaultCampaignSchemaVersion = 2;

/// Verdict for one injected fault.
enum class FaultOutcome {
  kTolerated,            ///< run completed correctly; no monitor objected
  kTraceCounterexample,  ///< a trace monitor rejected the observed trace
  kWrongOutput,          ///< protocol completed but values were wrong (SDC)
  kDeadlock,             ///< simulation went quiescent before completion
  kHang,                 ///< timeout or event budget (livelock/oscillation)
  kCrash,                ///< the flow or a behavioural model threw
};

/// "tolerated" / "trace-counterexample" / "wrong-output" / "deadlock" /
/// "hang" / "crash".
std::string_view fault_outcome_name(FaultOutcome outcome);

/// Every outcome except kTolerated counts as detected.
bool fault_detected(FaultOutcome outcome);

/// One injected fault and its verdict.
struct FaultRun {
  std::string fault;  ///< stable description (sim::Fault::describe)
  std::string kind;   ///< "stuck-at-0/1", "bit-flip", "delay-perturbation"
  FaultOutcome outcome = FaultOutcome::kTolerated;
  bool detected = false;
  std::string detail;   ///< benchmark detail line or crash message
  std::string monitor;  ///< controller whose monitor rejected, if any
  /// Minimal rejected trace prefix (trace::reject_prefix), the
  /// counterexample against the controller's specification language.
  std::vector<std::string> counterexample;
};

struct DesignCampaign {
  std::string design;
  bool baseline_ok = false;  ///< the fault-free run passed its benchmark
  int monitors = 0;  ///< trace monitors attached and baseline-validated
  int injected = 0;
  int detected = 0;
  int tolerated = 0;
  int silent_corruption = 0;  ///< kWrongOutput runs: completed-but-wrong
  int trace_detected = 0;     ///< runs the trace verifier caught
  std::vector<FaultRun> runs;
};

struct CampaignOptions {
  /// PRNG seed for fault sampling and delay jitter.  0 = auto: the
  /// BB_SEED environment variable when set and positive, otherwise 1.
  std::uint64_t seed = 0;
  /// PRNG-sampled stuck-at faults per design (polarity alternates), on
  /// top of one targeted stuck-at-1 per validated trace monitor.
  int random_stuck_at = 4;
  /// SEU bit flips per design, on state-holding (C-element) outputs when
  /// the design has any, otherwise on sampled gate outputs.
  int bit_flips = 3;
  /// Whole-netlist delay-perturbation runs per design: every gate delay
  /// scaled by 1.5, plus seeded jitter drawn from [-0.3, +0.3] ns.
  int delay_runs = 1;
};

/// The seed a given options.seed resolves to (explicit wins, then the
/// BB_SEED environment variable, then 1).
std::uint64_t effective_seed(const CampaignOptions& options);

struct CampaignResult {
  std::uint64_t seed = 0;
  std::vector<DesignCampaign> designs;

  int total_injected() const;
  int total_detected() const;
  int total_tolerated() const;
  int total_silent_corruption() const;

  /// Human-readable per-design summary.
  std::string to_text() const;
  /// Deterministic machine-readable artifact: same seed, same bytes (no
  /// wall-clock content).
  std::string to_json() const;
};

/// Runs the campaign for one design.
DesignCampaign run_design_campaign(const std::string& design,
                                   const FlowOptions& options,
                                   const CampaignOptions& campaign);

/// Runs the campaign for several designs (e.g. {"systolic", "wagging",
/// "stack", "ssem"}).
CampaignResult run_fault_campaign(const std::vector<std::string>& designs,
                                  const FlowOptions& options,
                                  const CampaignOptions& campaign);

}  // namespace bb::flow
