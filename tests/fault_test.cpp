// Fault-injection semantics (sim::FaultPlan) and the campaign harness
// (flow::run_design_campaign / run_fault_campaign).
#include "src/sim/fault.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "src/balsa/compile.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/faultsim.hpp"
#include "src/flow/flow.hpp"

namespace bb {
namespace {

netlist::GateNetlist systolic_gates() {
  const auto net = balsa::compile_source(designs::design("systolic").source);
  return flow::synthesize_control(net, flow::FlowOptions::optimized()).gates;
}

TEST(FaultPlan, StuckAtRecordsGateAndOutputNet) {
  const auto gates = systolic_gates();
  sim::FaultPlan plan(gates);
  EXPECT_TRUE(plan.empty());

  plan.stuck_at(0, true);
  ASSERT_EQ(plan.faults().size(), 1u);
  const sim::Fault& f = plan.faults()[0];
  EXPECT_EQ(f.kind, sim::FaultKind::kStuckAt1);
  EXPECT_EQ(f.gate, 0);
  EXPECT_EQ(f.net, gates.gates()[0].output);
  EXPECT_TRUE(plan.is_forced(0));
  EXPECT_TRUE(plan.forced_value(0));
  EXPECT_FALSE(plan.is_forced(1));

  const std::string desc = f.describe(gates);
  EXPECT_NE(desc.find("stuck-at-1"), std::string::npos);
}

TEST(FaultPlan, BitFlipTargetsNetAtInstant) {
  const auto gates = systolic_gates();
  sim::FaultPlan plan(gates);
  const int net = gates.gates()[3].output;
  plan.bit_flip(net, 42.0);
  ASSERT_EQ(plan.bit_flips().size(), 1u);
  EXPECT_EQ(plan.bit_flips()[0]->net, net);
  EXPECT_DOUBLE_EQ(plan.bit_flips()[0]->at_ns, 42.0);
  // Bit flips do not force gates or change delays.
  for (std::size_t g = 0; g < gates.gates().size(); ++g) {
    EXPECT_FALSE(plan.is_forced(static_cast<int>(g)));
  }
}

TEST(FaultPlan, DelayPerturbationIsSeedDeterministic) {
  const auto gates = systolic_gates();
  sim::FaultPlan a(gates);
  sim::FaultPlan b(gates);
  sim::FaultPlan c(gates);
  a.perturb_delays(7, 1.5, 0.3);
  b.perturb_delays(7, 1.5, 0.3);
  c.perturb_delays(8, 1.5, 0.3);

  bool differs_from_c = false;
  for (std::size_t g = 0; g < gates.gates().size(); ++g) {
    const int gi = static_cast<int>(g);
    EXPECT_DOUBLE_EQ(a.effective_delay_ns(gi), b.effective_delay_ns(gi));
    if (a.effective_delay_ns(gi) != c.effective_delay_ns(gi)) {
      differs_from_c = true;
    }
  }
  EXPECT_TRUE(differs_from_c) << "different seeds should perturb differently";
}

TEST(FaultOutcome, NamesAndDetection) {
  using flow::FaultOutcome;
  EXPECT_EQ(flow::fault_outcome_name(FaultOutcome::kTolerated), "tolerated");
  EXPECT_EQ(flow::fault_outcome_name(FaultOutcome::kTraceCounterexample),
            "trace-counterexample");
  EXPECT_EQ(flow::fault_outcome_name(FaultOutcome::kWrongOutput),
            "wrong-output");
  EXPECT_EQ(flow::fault_outcome_name(FaultOutcome::kDeadlock), "deadlock");
  EXPECT_EQ(flow::fault_outcome_name(FaultOutcome::kHang), "hang");
  EXPECT_EQ(flow::fault_outcome_name(FaultOutcome::kCrash), "crash");

  EXPECT_FALSE(flow::fault_detected(FaultOutcome::kTolerated));
  EXPECT_TRUE(flow::fault_detected(FaultOutcome::kTraceCounterexample));
  EXPECT_TRUE(flow::fault_detected(FaultOutcome::kDeadlock));
  EXPECT_TRUE(flow::fault_detected(FaultOutcome::kHang));
  EXPECT_TRUE(flow::fault_detected(FaultOutcome::kCrash));
}

TEST(Campaign, ExplicitSeedWins) {
  flow::CampaignOptions options;
  options.seed = 99;
  EXPECT_EQ(flow::effective_seed(options), 99u);
}

TEST(Campaign, MalformedSeedEnvFallsBackToDefault) {
  flow::CampaignOptions options;
  for (const char* bad : {"1e6", "10x", "abc"}) {
    setenv("BB_SEED", bad, 1);
    EXPECT_EQ(flow::effective_seed(options), 1u) << "'" << bad << "'";
  }
  setenv("BB_SEED", "42", 1);
  EXPECT_EQ(flow::effective_seed(options), 42u);
  unsetenv("BB_SEED");
}

flow::CampaignOptions small_campaign() {
  flow::CampaignOptions options;
  options.seed = 1;
  options.random_stuck_at = 2;
  options.bit_flips = 1;
  options.delay_runs = 1;
  return options;
}

TEST(Campaign, SystolicDetectsStuckAtViaTraceVerifier) {
  const auto dc = flow::run_design_campaign(
      "systolic", flow::FlowOptions::optimized(), small_campaign());

  EXPECT_TRUE(dc.baseline_ok);
  EXPECT_GE(dc.monitors, 1);
  EXPECT_EQ(dc.injected, static_cast<int>(dc.runs.size()));
  EXPECT_EQ(dc.injected, dc.detected + dc.tolerated);

  // At least one stuck-at fault must be caught by the trace verifier
  // with a non-empty minimal counterexample naming the offending edge.
  bool stuck_at_cex = false;
  for (const flow::FaultRun& run : dc.runs) {
    EXPECT_EQ(run.detected, flow::fault_detected(run.outcome));
    if (run.outcome == flow::FaultOutcome::kTraceCounterexample) {
      EXPECT_FALSE(run.monitor.empty());
      ASSERT_FALSE(run.counterexample.empty());
      const std::string& last = run.counterexample.back();
      EXPECT_TRUE(last.back() == '+' || last.back() == '-') << last;
      if (run.kind == "stuck-at-1" || run.kind == "stuck-at-0") {
        stuck_at_cex = true;
      }
    }
  }
  EXPECT_TRUE(stuck_at_cex);
  EXPECT_GT(dc.trace_detected, 0);
}

TEST(Campaign, TargetedStuckAtRejectsImmediately) {
  // The targeted fault forces a monitored controller output high at
  // t=0; the specification allows no such edge there, so the minimal
  // counterexample is a single label: the forced wire's rising edge.
  const auto dc = flow::run_design_campaign(
      "systolic", flow::FlowOptions::optimized(), small_campaign());
  bool found = false;
  for (const flow::FaultRun& run : dc.runs) {
    if (run.outcome == flow::FaultOutcome::kTraceCounterexample &&
        run.counterexample.size() == 1) {
      EXPECT_EQ(run.counterexample[0].back(), '+');
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Campaign, SameSeedSameJson) {
  const std::vector<std::string> designs = {"systolic"};
  const auto options = flow::FlowOptions::optimized();
  const auto a = flow::run_fault_campaign(designs, options, small_campaign());
  const auto b = flow::run_fault_campaign(designs, options, small_campaign());
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_EQ(a.seed, 1u);
  EXPECT_EQ(a.total_injected(), a.total_detected() + a.total_tolerated());
}

TEST(Campaign, DifferentSeedsSampleDifferentFaults) {
  auto opts_a = small_campaign();
  auto opts_b = small_campaign();
  opts_b.seed = 2;
  const auto options = flow::FlowOptions::optimized();
  const auto a = flow::run_design_campaign("systolic", options, opts_a);
  const auto b = flow::run_design_campaign("systolic", options, opts_b);
  std::set<std::string> fa, fb;
  for (const auto& r : a.runs) fa.insert(r.fault);
  for (const auto& r : b.runs) fb.insert(r.fault);
  EXPECT_NE(fa, fb);
}

}  // namespace
}  // namespace bb
