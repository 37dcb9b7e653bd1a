// The paper's evaluation in one run.  Prints, in order: Table 1, Table 2,
// Figs. 3-5, the Section 4.3 verification sweep, Table 3, the Section 6
// tool statistics and the ablations.  Takes no arguments.
//
// The output is deterministic: the ctest `paper_golden` compares it byte
// for byte with bench/paper.golden.txt, and requires every `text` block
// of EXPERIMENTS.md to appear in it.  Full-flow timing belongs to the
// perfbench workloads and spans, not to this driver.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "src/balsa/compile.hpp"
#include "src/bm/compile.hpp"
#include "src/bm/validate.hpp"
#include "src/ch/ast.hpp"
#include "src/ch/expansion.hpp"
#include "src/ch/parser.hpp"
#include "src/ch/printer.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/benchmarks.hpp"
#include "src/flow/flow.hpp"
#include "src/netlist/analysis.hpp"
#include "src/opt/cluster.hpp"
#include "src/trace/verify.hpp"

namespace {

using bb::ch::Activity;
using bb::ch::ExprKind;
using namespace std::string_literals;

const ExprKind kOps[] = {ExprKind::kEncEarly, ExprKind::kEncLate,
                         ExprKind::kEncMiddle, ExprKind::kSeq,
                         ExprKind::kSeqOv, ExprKind::kMutex};
const Activity kA = Activity::kActive;
const Activity kP = Activity::kPassive;
const Activity kPairs[4][2] = {{kA, kA}, {kA, kP}, {kP, kA}, {kP, kP}};

std::string keyword(ExprKind op) {
  return std::string(bb::ch::kind_keyword(op));
}

// ---- Table 1: legal combinations of interleaving operators and argument
// activities ("Burst-Mode aware" restrictions).
//
// Regenerated by construction: a combination is reported "Yes" when the
// CH expression expands and compiles into a specification that passes
// full Burst-Mode validation; "No" entries are rejected by the legality
// table.

/// A self-contained test program exercising (op, a1, a2): the operator
/// pair is enclosed in a passive activation when its first argument is
/// active (a complete controller must be input-driven).
bb::ch::ExprPtr test_program(ExprKind op, Activity a1, Activity a2) {
  auto inner = bb::ch::op2(op, bb::ch::ptop(a1, "x"), bb::ch::ptop(a2, "y"));
  if (a1 == Activity::kActive || op == ExprKind::kSeqOv) {
    return bb::ch::rep(bb::ch::enc_early(
        bb::ch::ptop(Activity::kPassive, "go"), std::move(inner)));
  }
  return bb::ch::rep(std::move(inner));
}

/// "Yes" when the combination is Table 1 legal AND compiles to a valid BM
/// machine.
std::string verdict(ExprKind op, Activity a1, Activity a2) {
  if (!bb::ch::is_bm_aware(op, a1, a2)) return "No";
  try {
    const auto spec = bb::bm::compile(*test_program(op, a1, a2), "t");
    return bb::bm::validate(spec).ok ? "Yes" : "no (invalid BM)";
  } catch (const std::exception& e) {
    return std::string("no (") + e.what() + ")";
  }
}

void table1() {
  std::printf("Table 1: Legal Combinations of Operators and Arguments\n");
  std::printf("%-12s %-15s %-15s %-15s %-15s\n", "Operator", "active/active",
              "active/passive", "passive/active", "passive/passive");
  for (const ExprKind op : kOps) {
    std::printf("%-12s", keyword(op).c_str());
    for (const auto& pair : kPairs) {
      std::printf(" %-15s", verdict(op, pair[0], pair[1]).c_str());
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper reference: enc-early/enc-middle/seq legal except A/P;\n"
      "enc-late only P/*; seq-ov only A/A; mutex only P/P.\n");
}

// ---- Table 2: the four-phase expansion of every CH interleaving operator
// and legal argument-activity combination, in the paper's notation
// (events of the first argument a1..a4, of the second b1..b4).

void table2() {
  std::printf("Table 2: The Four-Phase Expansion of CH Operators\n");
  std::printf("(channel a = first argument, channel b = second argument)\n\n");
  for (const ExprKind op : kOps) {
    std::printf("%s:\n", keyword(op).c_str());
    for (const auto& [a1, a2] : kPairs) {
      const std::string activities =
          std::string(bb::ch::activity_name(a1)) + "/" +
          std::string(bb::ch::activity_name(a2));
      if (!bb::ch::is_bm_aware(op, a1, a2)) {
        std::printf("  %-18s -\n", activities.c_str());
        continue;
      }
      const auto expr =
          bb::ch::op2(op, bb::ch::ptop(a1, "a"), bb::ch::ptop(a2, "b"));
      std::printf("  %-18s %s\n", activities.c_str(),
                  bb::ch::to_string(bb::ch::expand(*expr)).c_str());
    }
    std::printf("\n");
  }
  std::printf(
      "Paper reference (Table 2), e.g. enc-early A/A = "
      "[a1][a2 b1 b2 b3 b4][a3][a4];\n"
      "seq = [a1 a2 a3 a4 b1][b2][b3][b4]; "
      "enc-middle = [a1 b1][b2 a2][a3 b3][b4 a4].\n");
}

// ---- Fig. 3: the Burst-Mode specifications of the three handshake
// components modelled in Section 3.4 (sequencer, call, passivator).

void fig3() {
  struct Example {
    const char* name;
    const char* source;
    int paper_states;
  };
  const Example examples[] = {
      {"Sequencer",
       "(rep (enc-early (p-to-p passive P)"
       " (seq (p-to-p active A1) (p-to-p active A2))))",
       6},
      {"Call",
       "(rep (mutex (enc-early (p-to-p passive A1) (p-to-p active B))"
       " (enc-early (p-to-p passive A2) (p-to-p active B))))",
       7},
      {"Passivator",
       "(rep (enc-middle (p-to-p passive A) (p-to-p passive B)))", 2},
  };
  std::printf("Fig. 3: Burst-Mode specifications of three handshake "
              "components\n\n");
  for (const Example& e : examples) {
    const auto spec = bb::bm::compile(*bb::ch::parse(e.source), e.name);
    std::printf("--- %s (CH: %s)\n", e.name, e.source);
    std::printf("%s", spec.to_bms().c_str());
    std::printf("states: %d (paper: %d)   valid BM: %s\n\n", spec.num_states,
                e.paper_states, bb::bm::validate(spec).ok ? "yes" : "NO");
  }
}

// ---- Fig. 4: Activation Channel Removal on the Section 4.1 example, a
// decision-wait activating a sequencer through channel o2.  Prints the
// original CH programs and BM machines, the merged program, and the
// merged 11-state machine of the figure.

void fig4() {
  std::printf("Fig. 4: Activation Channel Removal (decision-wait + "
              "sequencer)\n\n");
  const auto dw = bb::ch::parse(
      "(rep (enc-early (p-to-p passive a1)"
      " (mutex (enc-early (p-to-p passive i1) (p-to-p active o1))"
      " (enc-early (p-to-p passive i2) (p-to-p active o2)))))");
  const auto seq = bb::ch::parse(
      "(rep (enc-early (p-to-p passive o2)"
      " (seq (p-to-p active c1) (p-to-p active c2))))");

  const auto dw_spec = bb::bm::compile(*dw, "decision-wait");
  const auto seq_spec = bb::bm::compile(*seq, "sequencer");
  std::printf("Decision-wait: %d states (paper: 9)\n%s\n", dw_spec.num_states,
              dw_spec.to_bms().c_str());
  std::printf("Sequencer: %d states (paper: 6)\n%s\n", seq_spec.num_states,
              seq_spec.to_bms().c_str());

  const auto merged = bb::opt::activation_channel_removal(
      bb::ch::Program("DW", dw->clone()), bb::ch::Program("SEQ", seq->clone()),
      "o2");
  if (!merged) {
    std::printf("T1 FAILED unexpectedly\n");
    return;
  }
  std::printf("Merged CH program:\n%s\n\n",
              bb::ch::to_pretty_string(*merged->body).c_str());
  const auto spec = bb::bm::compile(*merged->body, "merged");
  std::printf("Merged controller: %d states (paper Fig. 4: 11), valid: %s\n%s",
              spec.num_states, bb::bm::validate(spec).ok ? "yes" : "NO",
              spec.to_bms().c_str());
}

// ---- Fig. 5: Call Distribution on the Section 4.2 example, a sequencer
// whose two branches activate a 2-way call (taken from the systolic
// counter).  Prints the split into call fragments and the merged 6-state
// controller of the figure.

void fig5() {
  std::printf("Fig. 5: Call Distribution (sequencer + 2-way call)\n\n");
  std::vector<bb::ch::Program> programs;
  programs.emplace_back(
      "SEQ", bb::ch::parse("(rep (enc-early (p-to-p passive a)"
                           " (seq (p-to-p active b1) (p-to-p active b2))))"));
  programs.emplace_back(
      "CALL",
      bb::ch::parse("(rep (mutex"
                    " (enc-early (p-to-p passive b1) (p-to-p active c))"
                    " (enc-early (p-to-p passive b2) (p-to-p active c))))"));
  for (const auto& p : programs) {
    std::printf("%s: %s\n", p.name.c_str(),
                bb::ch::to_string(*p.body).c_str());
  }

  bb::opt::ClusterStats stats;
  const auto clustered =
      bb::opt::t2_clustering(bb::opt::wrap(std::move(programs)), {}, &stats);
  std::printf("\nOptimization log:\n");
  for (const auto& line : stats.log) std::printf("  %s\n", line.c_str());

  std::printf("\nResult: %zu controller(s)\n", clustered.size());
  for (const auto& c : clustered) {
    std::printf("%s\n", bb::ch::to_pretty_string(*c.program.body).c_str());
    const auto spec = bb::bm::compile(*c.program.body, "result");
    std::printf("states: %d (paper Fig. 5: 6), valid: %s\n%s\n",
                spec.num_states, bb::bm::validate(spec).ok ? "yes" : "NO",
                spec.to_bms().c_str());
  }
}

// ---- Section 4.3: formal verification of Activation Channel Removal.
//
// For every legal combination of operators in the activating and the
// activated component (sharing one activation channel), the clustered
// controller is checked for conformation equivalence against the
// composition of the two originals with the channel hidden: the paper's
// AVER experiment ("The experiment has succeeded for all operator
// combinations").

void verify() {
  std::printf("Section 4.3: trace-theory verification of Activation Channel "
              "Removal\n");
  std::printf("%-12s %-9s %-12s %-10s %-8s %-8s\n", "activating", "activity",
              "activated", "verdict", "|comp|", "|clust|");
  int pass = 0, total = 0;
  for (const auto& op1 :
       {"enc-early"s, "enc-middle"s, "enc-late"s, "seq"s, "seq-ov"s}) {
    for (const auto& act1 : {"passive"s, "active"s}) {
      // Table 1: enc-late has no active/- row; seq-ov has no passive row.
      if ((op1 == "enc-late" && act1 == "active") ||
          (op1 == "seq-ov" && act1 == "passive")) {
        continue;
      }
      const std::string inner =
          "(" + op1 + " (p-to-p " + act1 + " p) (p-to-p active c))";
      // An active first argument needs a passive activation around it.
      const std::string body =
          act1 == "active" ? "(enc-early (p-to-p passive go) " + inner + ")"
                           : inner;
      const auto x = bb::ch::parse("(rep " + body + ")");
      for (const auto& op2 : {"enc-early"s, "enc-middle"s, "enc-late"s}) {
        const auto y = bb::ch::parse(
            "(rep (" + op2 + " (p-to-p passive c) (p-to-p active d)))");
        const auto merged = bb::opt::activation_channel_removal(
            bb::ch::Program("X", x->clone()), bb::ch::Program("Y", y->clone()),
            "c");
        ++total;
        if (!merged) {
          std::printf("%-12s %-9s %-12s %-10s\n", op1.c_str(), act1.c_str(),
                      op2.c_str(), "NO-MERGE");
          continue;
        }
        const auto result =
            bb::trace::verify_clustering(*x, *y, "c", *merged->body);
        if (result.equivalent) ++pass;
        std::printf("%-12s %-9s %-12s %-10s %-8d %-8d\n", op1.c_str(),
                    act1.c_str(), op2.c_str(),
                    result.equivalent ? "EQUIV" : "FAIL",
                    result.composed_states, result.clustered_states);
      }
    }
  }
  std::printf("\n%d / %d combinations conform (paper: all succeed)\n", pass,
              total);
}

// ---- Table 3: speed and area of the four evaluation designs under the
// unoptimized Balsa baseline and the optimized (clustered Burst-Mode)
// back-end.
//
// Absolute numbers differ from the paper (our substrate is a simulator
// with a characterized cell library, not the authors' post-layout AMS
// 0.35um testbed); the shape is the reproduction target, and
// tests/flow_test.cpp asserts it: the optimized circuits win on speed
// everywhere, most on the control-dominated systolic counter, and pay an
// area overhead against the hand-optimized templates.

void table3() {
  struct PaperRow {
    const char* design;
    double unopt_ns, opt_ns, improvement_pct;
    double unopt_area, opt_area, overhead_pct;
  };
  // Paper Table 3 (speed in ns, area in the paper's mm^2 units).
  const PaperRow paper_rows[] = {
      {"systolic", 51.29, 40.43, 21.16, 39.68, 50.43, 27.09},
      {"wagging", 49.82, 42.43, 14.83, 228.93, 283.71, 23.92},
      {"stack", 121.58, 107.70, 11.41, 282.48, 335.19, 18.66},
      {"ssem", 66.48, 60.65, 8.76, 453.76, 563.47, 24.17},
  };
  std::printf("Table 3: Experimental Results (measured | paper)\n\n");
  std::printf("%-22s | %10s %10s %8s | %10s %10s %8s | %s\n", "",
              "Unopt(ns)", "Opt(ns)", "Impr", "Unopt(A)", "Opt(A)", "Ovhd",
              "check");
  for (const PaperRow& paper : paper_rows) {
    const auto row = bb::flow::run_table3_row(paper.design);
    if (!row.unoptimized.ok || !row.optimized.ok) {
      std::printf("%-22s FAILED: %s / %s\n", row.title.c_str(),
                  row.unoptimized.detail.c_str(),
                  row.optimized.detail.c_str());
      continue;
    }
    std::printf("%-22s | %10.2f %10.2f %7.2f%% | %10.0f %10.0f %7.2f%% | %s\n",
                row.title.c_str(), row.unoptimized.time_ns,
                row.optimized.time_ns, row.speed_improvement_pct,
                row.unoptimized.total_area, row.optimized.total_area,
                row.area_overhead_pct, row.optimized.detail.c_str());
    std::printf("%-22s | %10.2f %10.2f %7.2f%% | %10.0f %10.0f %7.2f%% | "
                "(paper)\n",
                "", paper.unopt_ns, paper.opt_ns, paper.improvement_pct,
                paper.unopt_area, paper.opt_area, paper.overhead_pct);
  }
  std::printf(
      "\nShape targets: optimized faster on every design; improvement\n"
      "largest for the control-dominated systolic counter; optimized area\n"
      "larger than the hand-optimized template baseline.  Unlike the\n"
      "paper, the wagging register, not the datapath-dominated\n"
      "microprocessor core, gains least.\n");
}

// ---- Section 6 tool statistics: per design, the handshake netlist size,
// the clustering log (T1 merges / rejections, T2 splits / restores), and
// the synthesized controller inventory (states, products, literals,
// area).  Mirrors the paper's observation that clustering yields
// "netlists of several clustered components, as opposed to single,
// monolithic controllers".

void flowstats() {
  for (const auto* design : bb::designs::all_designs()) {
    std::printf("=== %s (%s)\n", design->title.c_str(), design->name.c_str());
    const auto net = bb::balsa::compile_source(design->source);
    std::printf("handshake components: %zu (%zu control, %zu datapath), "
                "internal control channels: %zu\n",
                net.components().size(), net.control_ids().size(),
                net.datapath_ids().size(),
                net.internal_control_channels().size());

    const auto result =
        bb::flow::synthesize_control(net, bb::flow::FlowOptions::optimized());
    const auto& cs = result.cluster_stats;
    std::printf("cluster log:\n");
    for (const auto& line : cs.log) std::printf("  %s\n", line.c_str());
    std::printf("T1 applied %d, rejected %d; calls split %d, distributed %d, "
                "restored %d\n",
                cs.t1_applied, cs.t1_rejected, cs.calls_split,
                cs.calls_distributed, cs.calls_restored);
    std::printf("final controllers: %zu\n", result.info.size());
    for (const auto& info : result.info) {
      std::printf("  %-60s states=%-3d products=%-3zu literals=%-4zu "
                  "area=%.0f (members: %zu)\n",
                  info.name.substr(0, 60).c_str(), info.states, info.products,
                  info.literals, info.area, info.members.size());
    }
    const auto stats = bb::netlist::analyze(result.gates);
    std::printf("control area: %.0f, cells: %d, critical path %.2f ns\n",
                result.area, stats.num_gates, stats.critical_path_ns);
    std::printf("cell mix: %s\n\n",
                bb::netlist::histogram_string(stats).c_str());
  }
}

// ---- Ablations of the design decisions DESIGN.md calls out:
//   1. Minimalist mode: speed (single-output, minimal product count) vs
//      area (minimal literals): part of Table 3's area overhead.
//   2. Technology mapping: level-separated (the paper's per-module DC
//      runs) vs whole-cone: the Section 5/6 area discussion.
//   3. Cluster state budget: how max_states bounds controller growth
//      (Section 4.4's "restrictions determine how many components can be
//      clustered together").
//   4. The Burst-Mode-aware gate (Table 1): admitting illegal operator
//      combinations produces expansions that fail BM validation.

void ablation() {
  std::printf("--- Ablation 1+2: Minimalist mode x mapping style "
              "(systolic counter, clustered)\n");
  std::printf("%-28s %12s %12s %12s\n", "configuration", "time(ns)",
              "ctl area", "improvement vs unopt");
  const auto base =
      bb::flow::run_benchmark("systolic", bb::flow::FlowOptions::unoptimized());
  struct Config {
    const char* name;
    bb::minimalist::SynthMode mode;
    bool level_separated;
  };
  const Config configs[] = {
      {"speed + level-separated", bb::minimalist::SynthMode::kSpeed, true},
      {"speed + whole-cone", bb::minimalist::SynthMode::kSpeed, false},
      {"area  + level-separated", bb::minimalist::SynthMode::kArea, true},
      {"area  + whole-cone", bb::minimalist::SynthMode::kArea, false},
  };
  for (const Config& c : configs) {
    bb::flow::FlowOptions options = bb::flow::FlowOptions::optimized();
    options.mode = c.mode;
    options.level_separated = c.level_separated;
    const auto r = bb::flow::run_benchmark("systolic", options);
    std::printf("%-28s %12.2f %12.0f %11.2f%%\n", c.name, r.time_ns,
                r.control_area,
                100.0 * (base.time_ns - r.time_ns) / base.time_ns);
  }
  std::printf("(baseline: %.2f ns, %.0f area)\n\n", base.time_ns,
              base.control_area);

  std::printf("--- Ablation 3: cluster state budget (stack design)\n");
  std::printf("%-12s %12s %12s %12s\n", "max_states", "controllers",
              "time(ns)", "ctl area");
  for (const int cap : {8, 16, 24, 40, 64}) {
    bb::flow::FlowOptions options = bb::flow::FlowOptions::optimized();
    options.max_states = cap;
    const auto r = bb::flow::run_benchmark("stack", options);
    std::printf("%-12d %12d %12.2f %12.0f%s\n", cap, r.controllers,
                r.time_ns, r.control_area, r.ok ? "" : "  (FAILED)");
  }
  std::printf("\n");

  std::printf("--- Ablation 4: dropping the Burst-Mode-aware gate "
              "(Table 1)\n");
  // Illegal combinations, expanded with best-guess interleavings, must be
  // caught by BM validation downstream.
  for (const char* src :
       {"(rep (enc-early (p-to-p active A) (p-to-p passive B)))",
        "(rep (seq (p-to-p active A) (p-to-p passive B)))",
        "(mutex (p-to-p active A) (p-to-p active B))"}) {
    bb::ch::ExpandOptions options;
    options.allow_illegal = true;
    std::string outcome;
    try {
      const auto expansion = bb::ch::expand(*bb::ch::parse(src), options);
      const auto spec = bb::bm::compile_items(expansion.flatten(), "x");
      const auto check = bb::bm::validate(spec);
      outcome = check.ok ? "UNEXPECTEDLY VALID"
                         : "rejected by validation: " + check.errors[0];
    } catch (const std::exception& e) {
      outcome = std::string("rejected: ") + e.what();
    }
    std::printf("  %-55s -> %s\n", src, outcome.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  table1();
  table2();
  fig3();
  fig4();
  fig5();
  verify();
  table3();
  flowstats();
  ablation();
  return 0;
}
