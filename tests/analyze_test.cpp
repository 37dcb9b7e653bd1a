// The deep semantic passes (src/analyze): a known-bad fixture per AN/PN/
// NL rule, known-good fixtures that must stay clean, and the pass
// registry itself.
#include "src/analyze/analyze.hpp"

#include <gtest/gtest.h>

#include "src/bm/compile.hpp"
#include "src/bm/parse.hpp"
#include "src/ch/parser.hpp"
#include "src/logic/cover.hpp"
#include "src/minimalist/synth.hpp"
#include "src/techmap/map.hpp"

namespace bb::analyze {
namespace {

using lint::Report;
using lint::Severity;

std::vector<std::string> rules_of(const Report& report) {
  std::vector<std::string> out;
  for (const lint::Diagnostic& d : report.diagnostics()) out.push_back(d.rule);
  return out;
}

bool has_rule(const Report& report, std::string_view id) {
  for (const lint::Diagnostic& d : report.diagnostics()) {
    if (d.rule == id) return true;
  }
  return false;
}

// ---- pass registry -------------------------------------------------

TEST(Registry, EveryPassRuleIsRegistered) {
  const auto& passes = all_passes();
  ASSERT_EQ(passes.size(), 3u);
  for (const PassInfo& pass : passes) {
    EXPECT_FALSE(pass.name.empty());
    EXPECT_FALSE(pass.layer.empty());
    // Every comma-separated rule id must exist in the shared registry.
    std::string id;
    const std::string rules(pass.rules);
    for (std::size_t i = 0; i <= rules.size(); ++i) {
      if (i == rules.size() || rules[i] == ',' || rules[i] == ' ') {
        if (!id.empty()) {
          EXPECT_NE(lint::find_rule(id), nullptr) << id;
        }
        id.clear();
      } else {
        id += rules[i];
      }
    }
  }
}

// ---- AN: deep Burst-Mode legality ----------------------------------

TEST(AnalyzeBm, CleanWireMachineIsClean) {
  const auto spec = bm::parse_bms(R"(
name wire
0 1 a+ | x+
1 0 a- | x-
)");
  EXPECT_TRUE(analyze_bm(spec).empty());
}

TEST(AnalyzeBm, An001ConflictingEntryValuationOnMonitoredSignal) {
  // State 3 is reached with a=1 (via 1) and a=0 (via 2), and its only
  // outgoing arc monitors 'a'.
  const auto spec = bm::parse_bms(R"(
0 1 a+ | x+
0 2 b+ | y+
1 3 c+ | z+
2 3 c+ | z+
3 4 a- | w+
)");
  const Report report = analyze_bm(spec);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"AN001"});
  EXPECT_NE(report.diagnostics()[0].message.find("a"), std::string::npos);
}

TEST(AnalyzeBm, An002EffectiveSubsetTrigger) {
  const auto spec = bm::parse_bms(R"(
0 1 a+ | x+
0 2 a+ b+ | y+
)");
  const Report report = analyze_bm(spec);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"AN002"});
}

TEST(AnalyzeBm, An002IndistinguishableDuplicateArcs) {
  const auto spec = bm::parse_bms(R"(
0 1 a+ | x+
0 1 a+ | x+
)");
  const Report report = analyze_bm(spec);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"AN002"});
  EXPECT_NE(report.diagnostics()[0].message.find("duplicates"),
            std::string::npos);
}

TEST(AnalyzeBm, An003SameTriggerDivergingResponses) {
  const auto spec = bm::parse_bms(R"(
0 1 a+ | x+
0 2 a+ | y+
)");
  const Report report = analyze_bm(spec);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"AN003"});
}

TEST(AnalyzeBm, An003OutputEdgeThatDoesNotToggle) {
  // x is already high when arc 1->2 fires x+ again.
  const auto spec = bm::parse_bms(R"(
0 1 a+ | x+
1 2 a- | x+
)");
  const Report report = analyze_bm(spec);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"AN003"});
  EXPECT_NE(report.diagnostics()[0].message.find("already 1"),
            std::string::npos);
}

TEST(AnalyzeBm, An004PreSatisfiedInputEdge) {
  // a is already high on entry to state 1; the a+ edge can never occur.
  const auto spec = bm::parse_bms(R"(
0 1 a+ | x+
1 2 a+ b+ | y+
)");
  const Report report = analyze_bm(spec);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"AN004"});
  EXPECT_EQ(report.count(Severity::kWarning), 1u);
}

TEST(AnalyzeBm, An004SinglePolarityWireOnCycle) {
  // a and b only ever rise yet drive the 0->1->0 loop.
  const auto spec = bm::parse_bms(R"(
0 1 a+ | x+
1 0 b+ | x-
)");
  const Report report = analyze_bm(spec);
  EXPECT_TRUE(has_rule(report, "AN004"));
}

// ---- PN: structural Petri-net passes --------------------------------

TEST(AnalyzePetri, MarkedCycleIsClean) {
  petri::PetriNet net;
  const int p0 = net.add_place(/*marked=*/true);
  const int p1 = net.add_place();
  net.add_transition({"a+", {p0}, {p1}});
  net.add_transition({"a-", {p1}, {p0}});
  EXPECT_TRUE(analyze_petri(net, "ring").empty());
}

TEST(AnalyzePetri, Pn001DeadTransitionAndPn002Siphon) {
  petri::PetriNet net;
  const int p0 = net.add_place(/*marked=*/true);
  const int p1 = net.add_place();
  const int p2 = net.add_place();
  net.add_transition({"live", {p0}, {p0}});
  net.add_transition({"dead", {p1}, {p2}});
  const Report report = analyze_petri(net, "demo");
  EXPECT_TRUE(has_rule(report, "PN001"));
  EXPECT_TRUE(has_rule(report, "PN002"));
  EXPECT_FALSE(has_rule(report, "PN003"));
  // The siphon is exactly the two places tokens can never reach.
  bool saw_siphon = false;
  for (const lint::Diagnostic& d : report.diagnostics()) {
    if (d.rule != "PN002") continue;
    saw_siphon = true;
    EXPECT_NE(d.message.find("p1"), std::string::npos);
    EXPECT_NE(d.message.find("p2"), std::string::npos);
  }
  EXPECT_TRUE(saw_siphon);
}

TEST(AnalyzePetri, Pn003NoMarkedTrapWhenTokensDrain) {
  petri::PetriNet net;
  const int p0 = net.add_place(/*marked=*/true);
  net.add_transition({"drain", {p0}, {}});
  const Report report = analyze_petri(net, "demo");
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"PN003"});
  EXPECT_EQ(report.count(Severity::kWarning), 1u);
}

TEST(AnalyzePetri, Pn004EmptyPreSet) {
  petri::PetriNet net;
  const int p0 = net.add_place(/*marked=*/true);
  net.add_transition({"spont", {}, {p0}});
  net.add_transition({"sink", {p0}, {}});
  const Report report = analyze_petri(net, "demo");
  EXPECT_TRUE(has_rule(report, "PN004"));
  EXPECT_FALSE(has_rule(report, "PN001"));
}

// ---- NL: semantic netlist audit ------------------------------------

/// A hand-built controller: x = a*b + a*c over inputs (a, b, c).
minimalist::SynthesizedController abc_controller() {
  minimalist::SynthesizedController ctrl;
  ctrl.name = "abc";
  ctrl.inputs = {"a", "b", "c"};
  ctrl.outputs = {"x"};
  ctrl.num_vars = 3;
  minimalist::SolvedFunction f;
  f.name = "x";
  f.products = logic::Cover::parse(3, "11-\n1-1");
  ctrl.functions.push_back(std::move(f));
  return ctrl;
}

netlist::GateNetlist abc_nets(int* a, int* b, int* c, int* x) {
  netlist::GateNetlist net("abc");
  *a = net.add_net("a");
  *b = net.add_net("b");
  *c = net.add_net("c");
  *x = net.add_net("x");
  net.mark_input(*a);
  net.mark_input(*b);
  net.mark_input(*c);
  return net;
}

TEST(AnalyzeMapped, SumOfProductsDecompositionIsClean) {
  // x = (a AND b) OR (a AND c): every intermediate net is a cover
  // product and the root is the union of all products.
  int a, b, c, x;
  auto net = abc_nets(&a, &b, &c, &x);
  const int n1 = net.add_gate("AND2", netlist::CellFn::kAnd, {a, b}, 0.1, 10);
  const int n2 = net.add_gate("AND2", netlist::CellFn::kAnd, {a, c}, 0.1, 10);
  net.add_gate("OR2", netlist::CellFn::kOr, {n1, n2}, 0.1, 10, x);
  EXPECT_TRUE(analyze_mapped(net, abc_controller(), "").empty());
}

TEST(AnalyzeMapped, Nl005HazardIncreasingFactoring) {
  // x = a AND (b OR c) computes the same function, but the intermediate
  // net (b OR c) is neither a partial product nor a union of products:
  // the distributive re-factoring can reintroduce hazards.
  int a, b, c, x;
  auto net = abc_nets(&a, &b, &c, &x);
  const int n1 = net.add_net("b_or_c");
  net.add_gate("OR2", netlist::CellFn::kOr, {b, c}, 0.1, 10, n1);
  net.add_gate("AND2", netlist::CellFn::kAnd, {a, n1}, 0.1, 10, x);
  const Report report = analyze_mapped(net, abc_controller(), "");
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"NL005"});
  EXPECT_NE(report.diagnostics()[0].object.find("b_or_c"), std::string::npos);
  EXPECT_FALSE(has_rule(report, "NL006"));  // the function itself is right
}

TEST(AnalyzeMapped, Nl006FunctionMismatchWithCounterexample) {
  // The netlist drives x with a plain OR: wrong function.
  int a, b, c, x;
  auto net = abc_nets(&a, &b, &c, &x);
  net.add_gate("OR2", netlist::CellFn::kOr, {b, c}, 0.1, 10, x);
  const Report report = analyze_mapped(net, abc_controller(), "");
  EXPECT_TRUE(has_rule(report, "NL006"));
  bool saw_minterm = false;
  for (const lint::Diagnostic& d : report.diagnostics()) {
    if (d.rule == "NL006") {
      saw_minterm = d.message.find("minterm") != std::string::npos;
    }
  }
  EXPECT_TRUE(saw_minterm);
}

TEST(AnalyzeMapped, Nl007ConeAboveEvaluationLimit) {
  int a, b, c, x;
  auto net = abc_nets(&a, &b, &c, &x);
  const int n1 = net.add_gate("AND2", netlist::CellFn::kAnd, {a, b}, 0.1, 10);
  const int n2 = net.add_gate("AND2", netlist::CellFn::kAnd, {a, c}, 0.1, 10);
  net.add_gate("OR2", netlist::CellFn::kOr, {n1, n2}, 0.1, 10, x);
  lint::LintOptions options;
  options.cone_eval_limit = 1;  // force the skip path
  const Report report = analyze_mapped(net, abc_controller(), "", options);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"NL007"});
  EXPECT_EQ(report.count(Severity::kNote), 1u);
  EXPECT_FALSE(report.has_errors());
}

TEST(AnalyzeMapped, RealMappedControllerIsClean) {
  // End to end: compile a CH program, synthesize, tech-map, audit.  The
  // mapper only applies hazard-non-increasing decompositions, so the
  // audit must come back clean (DOUT/DEL roots are unwrapped).
  const auto spec = bm::compile(
      *ch::parse("(rep (enc-early (p-to-p passive P)"
                 " (seq (p-to-p active A1) (p-to-p active A2))))"),
      "seq");
  const auto ctrl = minimalist::synthesize(spec);
  const auto net = techmap::map_controller(
      ctrl, techmap::CellLibrary::ams035(), {}, "p");
  const Report report = analyze_mapped(net, ctrl, "p");
  EXPECT_EQ(report.count(Severity::kError), 0u) << report.to_text();
  EXPECT_EQ(report.count(Severity::kWarning), 0u) << report.to_text();
}

}  // namespace
}  // namespace bb::analyze
