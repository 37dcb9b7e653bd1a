// The static-analysis subsystem: one clean and one deliberately-broken
// fixture per rule, the structured-diagnostics framework itself (rule
// registry, suppression, reporters), and the flow integration.
#include "src/lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>

#include "src/balsa/compile.hpp"
#include "src/bm/compile.hpp"
#include "src/bm/parse.hpp"
#include "src/bm/validate.hpp"
#include "src/ch/parser.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/analyze.hpp"
#include "src/flow/flow.hpp"
#include "src/hsnet/to_ch.hpp"
#include "src/lint/diag.hpp"
#include "src/lint/sarif.hpp"
#include "src/minimalist/synth.hpp"
#include "src/opt/cluster.hpp"
#include "tests/reference_lint.hpp"

namespace bb::lint {
namespace {

using hsnet::Component;
using hsnet::ComponentKind;
using netlist::CellFn;

// ---- helpers -------------------------------------------------------

Component make(ComponentKind kind, std::vector<std::string> ports,
               int ways = 0) {
  Component c;
  c.kind = kind;
  c.ports = std::move(ports);
  c.ways = ways;
  return c;
}

/// Rule ids present in a report, in report order.
std::vector<std::string> rules_of(const Report& report) {
  std::vector<std::string> out;
  for (const Diagnostic& d : report.diagnostics()) out.push_back(d.rule);
  return out;
}

bool has_rule(const Report& report, std::string_view id) {
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.rule == id) return true;
  }
  return false;
}

/// A minimal clean netlist: environment -> Loop -> Sequence -> two
/// Continues, every internal channel one-active/one-passive.
hsnet::Netlist clean_handshake() {
  hsnet::Netlist net("clean");
  net.declare_channel("a", 0, /*external=*/true);
  net.add(make(ComponentKind::kLoop, {"a", "b"}));
  net.add(make(ComponentKind::kSequence, {"b", "c", "d"}));
  net.add(make(ComponentKind::kContinue, {"c"}));
  net.add(make(ComponentKind::kContinue, {"d"}));
  return net;
}

/// A two-state wire machine; trivially valid.
bm::Spec clean_spec() {
  return bm::parse_bms(R"(
name wire
input a_r 0
output a_a 0
0 1 a_r+ | a_a+
1 0 a_r- | a_a-
)");
}

/// Gate fixture helper: INV with explicit nets.
int add_inv(netlist::GateNetlist& net, int from, int to = -1) {
  return net.add_gate("INV", CellFn::kInv, {from}, 0.1, 10.0, to);
}

// ---- diagnostics framework -----------------------------------------

TEST(Diag, RegistryHasStableUniqueIds) {
  const auto& rules = all_rules();
  ASSERT_GE(rules.size(), 8u);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    for (std::size_t j = i + 1; j < rules.size(); ++j) {
      EXPECT_NE(rules[i].id, rules[j].id);
    }
    EXPECT_EQ(find_rule(rules[i].id), &rules[i]);
  }
  ASSERT_NE(find_rule("BM004"), nullptr);
  EXPECT_EQ(find_rule("BM004")->severity, Severity::kError);
  ASSERT_NE(find_rule("NL004"), nullptr);
  EXPECT_EQ(find_rule("NL004")->severity, Severity::kWarning);
  EXPECT_EQ(find_rule("ZZ999"), nullptr);
}

TEST(Diag, AddUsesRegisteredSeverityAndRejectsUnknownRules) {
  Report report;
  report.add("BM002", "arc 0->1", "input burst is empty");
  report.add("BM007", "state 3", "unreachable");
  EXPECT_EQ(report.count(Severity::kError), 1u);
  EXPECT_EQ(report.count(Severity::kWarning), 1u);
  EXPECT_TRUE(report.has_errors());
  EXPECT_THROW(report.add("XX001", "x", "y"), std::invalid_argument);
}

TEST(Diag, SuppressionDropsFindingsAtAddAndMergeTime) {
  Report report;
  report.suppress("BM002");
  report.add("BM002", "arc 0->1", "suppressed");
  EXPECT_TRUE(report.empty());

  Report other;
  other.add("BM002", "arc 0->1", "kept in the source report");
  other.add("BM007", "state 3", "survives the merge");
  report.merge(other);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"BM007"});
}

TEST(Diag, TextReporterFormatsOneLinePerFinding) {
  Report report;
  report.add("NL001", "net 'x'", "driven twice");
  const std::string text = report.to_text();
  EXPECT_NE(text.find("error[NL001] net 'x': driven twice"),
            std::string::npos);
  EXPECT_NE(text.find("1 error(s), 0 warning(s), 0 note(s)"),
            std::string::npos);
}

TEST(Diag, JsonReporterGolden) {
  Report report;
  report.add("BM002", "arc 0->1", "input burst is empty");
  report.add("NL004", "net 'y'", "drives 9 gate inputs (limit \"8\")");
  EXPECT_EQ(
      report.to_json(),
      "{\"schema_version\":1,\"diagnostics\":["
      "{\"rule\":\"BM002\",\"severity\":\"error\",\"object\":\"arc 0->1\","
      "\"message\":\"input burst is empty\"},"
      "{\"rule\":\"NL004\",\"severity\":\"warning\",\"object\":\"net 'y'\","
      "\"message\":\"drives 9 gate inputs (limit \\\"8\\\")\"}"
      "],\"errors\":1,\"warnings\":1,\"notes\":0}");
}

TEST(Diag, JsonEscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Diag, SeverityOverrideAppliesAtAddAndMergeTime) {
  Report report;
  report.override_severity("BM002", Severity::kWarning);
  report.add("BM002", "arc 0->1", "demoted at add time");
  EXPECT_FALSE(report.has_errors());
  EXPECT_EQ(report.count(Severity::kWarning), 1u);

  Report other;
  other.add("BM002", "arc 1->2", "demoted at merge time");
  report.merge(other);
  EXPECT_EQ(report.count(Severity::kWarning), 2u);
  EXPECT_FALSE(report.has_errors());

  // An override wins over a pass's explicit-severity add too.
  report.add("BM002", Severity::kError, "arc 2->3", "escalation overridden");
  EXPECT_FALSE(report.has_errors());
}

TEST(Diag, BaselineSuppressesTheExactFindingOnly) {
  Report report;
  report.baseline({"NL004", "net 'y'"});
  report.add("NL004", "net 'y'", "accepted finding");
  EXPECT_TRUE(report.empty());
  report.add("NL004", "net 'z'", "a new finding on the same rule");
  EXPECT_EQ(report.count(Severity::kWarning), 1u);
  EXPECT_TRUE(report.is_baselined("NL004", "net 'y'"));
  EXPECT_FALSE(report.is_baselined("NL004", "net 'z'"));
}

TEST(Diag, BaselineRoundTripsThroughRenderAndParse) {
  Report report;
  report.add("BM002", "arc 0->1", "x");
  report.add("NL004", "net 'y'", "y");
  const auto entries = parse_baseline(report.to_baseline());
  ASSERT_EQ(entries.size(), 2u);
  Report filtered;
  for (const auto& e : entries) filtered.baseline(e);
  filtered.merge(report);
  EXPECT_TRUE(filtered.empty());
}

TEST(Diag, ParseBaselineSkipsCommentsAndMalformedLines) {
  const auto entries =
      parse_baseline("# comment\n\nBM002\tarc 0->1\nno-tab-here\n");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].rule, "BM002");
  EXPECT_EQ(entries[0].object, "arc 0->1");
}

// ---- SARIF reporter ------------------------------------------------

TEST(Sarif, RendersRulesAndResultsWithLogicalLocations) {
  Report report;
  report.add("BM002", "arc 0->1", "input burst is empty");
  const std::string sarif = to_sarif(report, "demo");
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"BM002\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\":\"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"fullyQualifiedName\":\"demo::arc 0->1\""),
            std::string::npos);
  // The tool.driver.rules table carries every registered rule, including
  // the semantic pass families.
  EXPECT_NE(sarif.find("\"id\":\"AN001\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\":\"PN002\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\":\"NL005\""), std::string::npos);
}

/// Writes `content` to a temp file and round-trips it through
/// `python3 -m json.tool` (a strict JSON parser).  Skips when python3 is
/// unavailable.
void expect_valid_json(const std::string& content, const char* tag) {
  if (std::system("python3 -c '' >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  const std::string path =
      testing::TempDir() + "lint_json_" + tag + ".json";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << content;
  }
  const std::string cmd = "python3 -m json.tool '" + path + "' >/dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << "invalid JSON in " << tag;
  std::remove(path.c_str());
}

TEST(Sarif, OutputIsStrictlyValidJson) {
  Report report;
  report.add("BM002", "arc 0->1", "quote \" backslash \\ newline \n done");
  report.add("NL004", "net 'y'", "warning finding");
  expect_valid_json(to_sarif(report, "demo"), "sarif");
}

TEST(Diag, JsonReportIsStrictlyValidJsonWithSchemaVersion) {
  Report report;
  report.add("BM002", "arc 0->1", "quote \" backslash \\ newline \n done");
  const std::string json = report.to_json();
  EXPECT_EQ(json.find("{\"schema_version\":1,"), 0u);
  expect_valid_json(json, "diag");
}

// ---- handshake layer ------------------------------------------------

TEST(LintHandshake, CleanNetlistHasNoFindings) {
  EXPECT_TRUE(lint_handshake(clean_handshake()).empty());
}

TEST(LintHandshake, DanglingChannelIsHS001) {
  hsnet::Netlist net("broken");
  net.declare_channel("a", 0, /*external=*/true);
  net.add(make(ComponentKind::kLoop, {"a", "b"}));
  net.add(make(ComponentKind::kSequence, {"b", "c", "d"}));
  net.add(make(ComponentKind::kContinue, {"c"}));
  // Channel "d" has no peer.
  const Report report = lint_handshake(net);
  ASSERT_TRUE(has_rule(report, "HS001"));
  EXPECT_TRUE(report.has_errors());
  EXPECT_NE(report.to_text().find("channel 'd'"), std::string::npos);
}

TEST(LintHandshake, UnconnectedChannelIsHS002) {
  hsnet::Netlist net = clean_handshake();
  net.declare_channel("ghost");
  const Report report = lint_handshake(net);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"HS002"});
  EXPECT_FALSE(report.has_errors());  // warning only
}

TEST(LintHandshake, OverConnectedChannelIsHS003) {
  hsnet::Netlist net = clean_handshake();
  net.add(make(ComponentKind::kContinue, {"c"}));  // third port on "c"
  const Report report = lint_handshake(net);
  EXPECT_TRUE(has_rule(report, "HS003"));
}

TEST(LintHandshake, TwoActiveEndsAreHS004) {
  hsnet::Netlist net("broken");
  net.declare_channel("a1", 0, /*external=*/true);
  net.declare_channel("a2", 0, /*external=*/true);
  // Both Loops drive channel "b" with their active out port.
  net.add(make(ComponentKind::kLoop, {"a1", "b"}));
  net.add(make(ComponentKind::kLoop, {"a2", "b"}));
  const Report report = lint_handshake(net);
  ASSERT_TRUE(has_rule(report, "HS004"));
  EXPECT_NE(report.to_text().find("two active ports"), std::string::npos);
}

TEST(LintHandshake, TwoPassiveEndsAreHS004) {
  hsnet::Netlist net("broken");
  net.declare_channel("p", 0, /*external=*/true);
  // Passivator and Continue both present a passive end on "q"; nothing
  // ever initiates that handshake.
  net.add(make(ComponentKind::kPassivator, {"p", "q"}));
  net.add(make(ComponentKind::kContinue, {"q"}));
  const Report report = lint_handshake(net);
  ASSERT_TRUE(has_rule(report, "HS004"));
  EXPECT_NE(report.to_text().find("two passive ports"), std::string::npos);
}

TEST(LintHandshake, IslandComponentsAreHS005) {
  hsnet::Netlist net = clean_handshake();
  // A closed two-component island: direction-consistent but unreachable
  // from the external activation.
  net.add(make(ComponentKind::kLoop, {"e", "f"}));
  net.add(make(ComponentKind::kSequence, {"f", "e"}));
  const Report report = lint_handshake(net);
  const auto rules = rules_of(report);
  EXPECT_EQ(rules, (std::vector<std::string>{"HS005", "HS005"}));
  EXPECT_FALSE(report.has_errors());  // warnings only
}

// ---- Burst-Mode layer ----------------------------------------------

TEST(LintBm, CleanSpecHasNoFindings) {
  EXPECT_TRUE(lint_bm(clean_spec()).empty());
}

TEST(LintBm, BidirectionalSignalIsBM001) {
  const auto spec = bm::parse_bms(R"(
name bidi
input a_r 0
output b_a 0
0 1 a_r+ | b_a+
1 0 b_a- | a_r-
)");
  const Report report = lint_bm(spec);
  ASSERT_TRUE(has_rule(report, "BM001"));
  // The message names both witness arcs.
  EXPECT_NE(report.to_text().find("arc 1->0"), std::string::npos);
  EXPECT_NE(report.to_text().find("arc 0->1"), std::string::npos);
}

TEST(LintBm, EmptyInputBurstIsBM002) {
  bm::Spec spec = clean_spec();
  spec.arcs[1].in_burst.transitions.clear();
  const Report report = lint_bm(spec);
  ASSERT_TRUE(has_rule(report, "BM002"));
  EXPECT_NE(report.to_text().find("arc 1->0"), std::string::npos);
}

TEST(LintBm, IdenticalSiblingBurstsAreBM003) {
  const auto spec = bm::parse_bms(R"(
name nondet
input a_r 0
output x_a 0
output y_a 0
0 1 a_r+ | x_a+
0 2 a_r+ | y_a+
)");
  const Report report = lint_bm(spec);
  ASSERT_TRUE(has_rule(report, "BM003"));
  // Each unordered pair is reported exactly once.
  const auto rules = rules_of(report);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "BM003"), 1);
}

TEST(LintBm, SubsetSiblingBurstIsBM004) {
  const auto spec = bm::parse_bms(R"(
name subset
input a_r 0
input b_r 0
output x_a 0
output y_a 0
0 1 a_r+ | x_a+
0 2 a_r+ b_r+ | y_a+
)");
  const Report report = lint_bm(spec);
  ASSERT_TRUE(has_rule(report, "BM004"));
  EXPECT_NE(report.to_text().find("maximal set"), std::string::npos);
}

TEST(LintBm, RepeatedEdgeIsBM005) {
  const auto spec = bm::parse_bms(R"(
name repeat
input a_r 0
output a_a 0
0 1 a_r+ | a_a+
1 0 a_r+ | a_a-
)");
  const Report report = lint_bm(spec);
  ASSERT_TRUE(has_rule(report, "BM005"));
  EXPECT_NE(report.to_text().find("'a_r+'"), std::string::npos);
}

TEST(LintBm, InconsistentEntryValuationIsBM006) {
  const auto spec = bm::parse_bms(R"(
name reentry
input a_r 0
input b_r 0
output x_a 0
0 1 a_r+ | x_a+
0 1 b_r+ |
)");
  const Report report = lint_bm(spec);
  ASSERT_TRUE(has_rule(report, "BM006"));
  EXPECT_NE(report.to_text().find("state 1"), std::string::npos);
}

TEST(LintBm, UnreachableStateIsBM007) {
  const auto spec = bm::parse_bms(R"(
name orphan
input a_r 0
output a_a 0
0 1 a_r+ | a_a+
1 0 a_r- | a_a-
2 0 a_r- | a_a-
)");
  const Report report = lint_bm(spec);
  ASSERT_TRUE(has_rule(report, "BM007"));
  EXPECT_FALSE(report.has_errors());  // unreachable states warn only
  // bm::validate agrees: warnings do not invalidate the machine.
  EXPECT_TRUE(bm::validate(spec).ok);
}

// ---- two-level logic layer -----------------------------------------

TEST(LintTwoLevel, SynthesizedControllerIsClean) {
  const auto spec = clean_spec();
  const auto ctrl = minimalist::synthesize(spec);
  EXPECT_TRUE(lint_two_level(ctrl, spec).empty());
}

TEST(LintTwoLevel, OffIntersectingProductIsMN001) {
  const auto spec = clean_spec();
  auto ctrl = minimalist::synthesize(spec);
  // A tautological product covers the OFF-set too.
  ctrl.functions[0].products.add(logic::Cube(ctrl.num_vars));
  const Report report = lint_two_level(ctrl, spec);
  ASSERT_TRUE(has_rule(report, "MN001"));
  EXPECT_NE(report.to_text().find("OFF-set"), std::string::npos);
}

TEST(LintTwoLevel, UncoveredRequiredCubeIsMN002) {
  const auto spec = clean_spec();
  auto ctrl = minimalist::synthesize(spec);
  // Drop every product of the first output: its required cubes are no
  // longer contained in any single product.
  ctrl.functions[0].products = logic::Cover(ctrl.num_vars);
  const Report report = lint_two_level(ctrl, spec);
  ASSERT_TRUE(has_rule(report, "MN002"));
}

TEST(LintTwoLevel, ShapeMismatchIsMN003) {
  const auto spec = clean_spec();
  auto ctrl = minimalist::synthesize(spec);
  ctrl.functions.pop_back();
  const Report report = lint_two_level(ctrl, spec);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"MN003"});
}

/// lint_two_level against the flow table synthesis handed back reports
/// exactly what re-extracting it from the specification reports.
void expect_same_two_level_reports(const bm::Spec& spec) {
  SCOPED_TRACE(spec.name);
  std::optional<minimalist::MachineSpec> machine;
  auto ctrl = minimalist::synthesize(spec, minimalist::SynthMode::kSpeed,
                                     nullptr, &machine);
  ASSERT_TRUE(machine.has_value());
  auto off = ctrl;  // the MN001 fixture
  off.functions[0].products.add(logic::Cube(ctrl.num_vars));
  auto uncovered = ctrl;  // the MN002 fixture
  uncovered.functions[0].products = logic::Cover(ctrl.num_vars);
  auto shape = ctrl;  // the MN003 fixture
  shape.functions.pop_back();
  for (const auto* c : {&ctrl, &off, &uncovered, &shape}) {
    EXPECT_EQ(lint_two_level(*c, *machine).to_json(),
              lint_two_level(*c, spec).to_json());
  }
}

TEST(LintTwoLevel, ExtractedFlowTableGivesTheSameReport) {
  expect_same_two_level_reports(clean_spec());
}

TEST(LintTwoLevel, PaperControllersGiveTheSameReportFromEitherFlowTable) {
  for (const char* name : {"systolic", "wagging", "stack", "ssem"}) {
    const auto net = balsa::compile_source(designs::design(name).source);
    std::vector<ch::Program> programs;
    for (const int id : net.control_ids()) {
      programs.push_back(hsnet::to_ch(net.component(id)));
    }
    opt::ClusterOptions copts;
    copts.max_states = flow::FlowOptions::optimized().max_states;
    const auto controllers = opt::optimize(std::move(programs), copts);
    ASSERT_FALSE(controllers.empty());
    for (const auto& cp : controllers) {
      expect_same_two_level_reports(
          bm::compile(*cp.program.body, cp.program.name));
    }
  }
}

// ---- gate layer -----------------------------------------------------

TEST(LintGates, CleanNetlistHasNoFindings) {
  netlist::GateNetlist net("clean");
  const int a = net.add_net("a");
  net.mark_input(a);
  const int b = add_inv(net, a);
  add_inv(net, b);
  EXPECT_TRUE(lint_gates(net).empty());
}

TEST(LintGates, MultipleDriversAreNL001) {
  netlist::GateNetlist net("broken");
  const int a = net.add_net("a");
  net.mark_input(a);
  const int x = net.add_net("x");
  add_inv(net, a, x);
  add_inv(net, a, x);  // second driver onto the same net
  const Report report = lint_gates(net);
  ASSERT_TRUE(has_rule(report, "NL001"));
  EXPECT_NE(report.to_text().find("net 'x'"), std::string::npos);
}

TEST(LintGates, FloatingInputIsNL002) {
  netlist::GateNetlist net("broken");
  const int a = net.add_net("a");  // never driven, never marked input
  add_inv(net, a);
  const Report report = lint_gates(net);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"NL002"});
}

TEST(LintGates, UnbrokenCombinationalCycleIsNL003) {
  netlist::GateNetlist net("broken");
  const int a = net.add_net("a");
  const int b = net.add_net("b");
  add_inv(net, a, b);
  add_inv(net, b, a);  // two-inverter loop, no delay cell
  const Report report = lint_gates(net);
  ASSERT_TRUE(has_rule(report, "NL003"));
}

TEST(LintGates, DelBrokenCycleIsClean) {
  netlist::GateNetlist net("clean");
  const int a = net.add_net("a");
  const int b = net.add_net("b");
  add_inv(net, a, b);
  net.add_gate("DEL", CellFn::kBuf, {b}, 0.25, 91.0, a);
  EXPECT_FALSE(has_rule(lint_gates(net), "NL003"));
}

TEST(LintGates, CelemBrokenCycleIsClean) {
  netlist::GateNetlist net("clean");
  const int a = net.add_net("a");
  net.mark_input(a);
  const int b = net.add_net("b");
  const int c = net.add_net("c");
  add_inv(net, b, c);
  net.add_gate("C2", CellFn::kCelem, {a, c}, 0.2, 182.0, b);
  EXPECT_FALSE(has_rule(lint_gates(net), "NL003"));
}

TEST(LintGates, FanoutAboveLimitIsNL004) {
  netlist::GateNetlist net("hot");
  const int a = net.add_net("a");
  net.mark_input(a);
  for (int i = 0; i < 3; ++i) add_inv(net, a);
  LintOptions options;
  options.fanout_limit = 2;
  const Report report = lint_gates(net, options);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"NL004"});
  EXPECT_FALSE(report.has_errors());
}

TEST(LintGates, SuppressionSilencesARule) {
  netlist::GateNetlist net("broken");
  const int a = net.add_net("a");
  add_inv(net, a);
  LintOptions options;
  options.suppress = {"NL002"};
  EXPECT_TRUE(lint_gates(net, options).empty());
}

// ---- flow integration ----------------------------------------------

TEST(LintFlow, OptimizedFlowOnDesignsReportsNoErrors) {
  for (const auto* design : designs::all_designs()) {
    const auto net = balsa::compile_source(design->source);
    const auto result =
        flow::synthesize_control(net, flow::FlowOptions::optimized());
    EXPECT_FALSE(result.lint_report.has_errors()) << design->name;
  }
}

TEST(LintFlow, UnoptimizedFlowOnDesignsReportsNoErrors) {
  for (const auto* design : designs::all_designs()) {
    const auto net = balsa::compile_source(design->source);
    const auto result =
        flow::synthesize_control(net, flow::FlowOptions::unoptimized());
    EXPECT_FALSE(result.lint_report.has_errors()) << design->name;
  }
}

TEST(LintFlow, BrokenNetlistAbortsWithLintError) {
  hsnet::Netlist net("broken");
  net.declare_channel("a", 0, /*external=*/true);
  net.add(make(ComponentKind::kLoop, {"a", "b"}));  // "b" dangles
  try {
    flow::synthesize_control(net, flow::FlowOptions::optimized());
    FAIL() << "expected flow::LintError";
  } catch (const flow::LintError& e) {
    EXPECT_TRUE(e.report().has_errors());
    EXPECT_NE(e.stage().find("handshake netlist"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("HS001"), std::string::npos);
  }
}

TEST(LintFlow, LintCanBeDisabled) {
  hsnet::Netlist net("broken");
  net.declare_channel("a", 0, /*external=*/true);
  net.add(make(ComponentKind::kLoop, {"a", "b"}));
  auto options = flow::FlowOptions::optimized();
  options.lint = false;
  const auto result = flow::synthesize_control(net, options);
  EXPECT_TRUE(result.lint_report.empty());
}

TEST(LintFlow, SuppressionReachesAnalyzeControl) {
  hsnet::Netlist net("broken");
  net.declare_channel("a", 0, /*external=*/true);
  net.add(make(ComponentKind::kLoop, {"a", "b"}));
  LintOptions lint_options;
  const auto has_errors = [&] {
    return flow::analyze_control(net, flow::FlowOptions::optimized(),
                                 lint_options, /*deep=*/false)
        .report.has_errors();
  };
  EXPECT_TRUE(has_errors());
  lint_options.suppress = {"HS001"};
  EXPECT_FALSE(has_errors());
}

}  // namespace
}  // namespace bb::lint
