// End-to-end flow tests: Balsa source -> handshake netlist -> clustered
// controllers -> gates -> simulated system, for both the unoptimized and
// the optimized back-ends (Fig. 1 / Table 3).
#include "src/flow/benchmarks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <utility>
#include <vector>

#include "src/balsa/compile.hpp"
#include "src/balsa/parser.hpp"
#include "src/bm/compile.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/analyze.hpp"
#include "src/flow/system.hpp"
#include "src/flow/testbench.hpp"
#include "src/hsnet/to_ch.hpp"
#include "src/netlist/verilog.hpp"
#include "src/obs/metrics.hpp"
#include "src/opt/cluster.hpp"
#include "src/util/failpoint.hpp"
#include "src/util/io.hpp"
#include "src/util/strings.hpp"
#include "tests/reference_lint.hpp"

namespace bb::flow {
namespace {

TEST(Flow, SynthesizeControlOptimizedClusters) {
  const auto net =
      balsa::compile_source(designs::systolic_counter().source);
  const auto result = synthesize_control(net, FlowOptions::optimized());
  // Loop + 9-way sequencer + 8-way call collapse to a single controller.
  ASSERT_EQ(result.controllers.size(), 1u);
  EXPECT_EQ(result.info[0].states, 19);
  EXPECT_EQ(result.cluster_stats.calls_distributed, 1);
  EXPECT_GT(result.area, 0.0);
}

TEST(Flow, SynthesizeControlBaselineUsesTemplates) {
  const auto net =
      balsa::compile_source(designs::systolic_counter().source);
  const auto result = synthesize_control(net, FlowOptions::unoptimized());
  // All three components have hand templates: no synthesized controllers.
  EXPECT_TRUE(result.controllers.empty());
  EXPECT_EQ(result.info.size(), 3u);
  for (const auto& info : result.info) {
    EXPECT_NE(info.name.find("(template)"), std::string::npos);
  }
}

TEST(Flow, ReportMentionsEveryController) {
  const auto net =
      balsa::compile_source(designs::systolic_counter().source);
  const auto result = synthesize_control(net, FlowOptions::optimized());
  const std::string text = report(result);
  EXPECT_NE(text.find("states"), std::string::npos);
  EXPECT_NE(text.find("total control area"), std::string::npos);
}

struct DesignCase {
  const char* name;
};

class Table3Designs : public ::testing::TestWithParam<DesignCase> {};

TEST_P(Table3Designs, UnoptimizedRunsCorrectly) {
  const auto r = run_benchmark(GetParam().name, FlowOptions::unoptimized());
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_GT(r.time_ns, 0.0);
  EXPECT_GT(r.total_area, 0.0);
}

TEST_P(Table3Designs, OptimizedRunsCorrectly) {
  const auto r = run_benchmark(GetParam().name, FlowOptions::optimized());
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_GT(r.time_ns, 0.0);
}

TEST_P(Table3Designs, OptimizedIsFaster) {
  // The headline of Table 3: the clustered back-end wins on speed for
  // every design.
  const auto row = run_table3_row(GetParam().name);
  ASSERT_TRUE(row.unoptimized.ok) << row.unoptimized.detail;
  ASSERT_TRUE(row.optimized.ok) << row.optimized.detail;
  EXPECT_GT(row.speed_improvement_pct, 0.0)
      << row.title << ": " << row.unoptimized.time_ns << " -> "
      << row.optimized.time_ns;
  // Clustering reduces the controller count.
  EXPECT_LE(row.optimized.controllers, row.unoptimized.components);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, Table3Designs,
                         ::testing::Values(DesignCase{"systolic"},
                                           DesignCase{"wagging"},
                                           DesignCase{"stack"},
                                           DesignCase{"ssem"}),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(Flow, SystolicImprovementIsControlDominated) {
  // Control-dominated designs benefit most (Section 6's observation).
  const auto systolic = run_table3_row("systolic");
  const auto ssem = run_table3_row("ssem");
  ASSERT_TRUE(systolic.optimized.ok);
  ASSERT_TRUE(ssem.optimized.ok);
  EXPECT_GT(systolic.speed_improvement_pct, ssem.speed_improvement_pct);
}

TEST(Flow, StackIsLifoCorrectUnderBothFlows) {
  for (const bool optimized : {false, true}) {
    const auto opts = optimized ? FlowOptions::optimized()
                                : FlowOptions::unoptimized();
    const auto r = run_benchmark("stack", opts);
    EXPECT_TRUE(r.ok) << r.detail;
    EXPECT_NE(r.detail.find("LIFO"), std::string::npos);
  }
}

TEST(Flow, SsemStoresExpectedValues) {
  const auto r = run_benchmark("ssem", FlowOptions::optimized());
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_NE(r.detail.find("stores 0..4"), std::string::npos);
}

TEST(Flow, EachFlowTableIsExtractedOnce) {
  // A cache miss extracts its flow table once, inside synthesis, and the
  // admission lint reuses it.  A hit was linted before it was stored, so
  // it extracts nothing.
  const auto& extracted =
      obs::Registry::global().counter("minimalist.extracted");
  for (const char* name : {"stack", "ssem"}) {
    SCOPED_TRACE(name);
    const auto net = balsa::compile_source(designs::design(name).source);
    minimalist::SynthCache cache;
    FlowOptions options = FlowOptions::optimized();
    options.cache_instance = &cache;

    std::uint64_t before = extracted.value();
    const auto cold = synthesize_control(net, options);
    EXPECT_GT(cold.timings.cache_misses, 0u);
    EXPECT_EQ(extracted.value() - before, cold.timings.cache_misses);

    before = extracted.value();
    const auto warm = synthesize_control(net, options);
    EXPECT_EQ(warm.timings.cache_misses, 0u);
    EXPECT_EQ(extracted.value() - before, warm.timings.cache_misses);
    EXPECT_EQ(report(warm), report(cold));
  }
}

/// The four paper designs and every procedure of examples/*.balsa, in a
/// fixed order, as (label, handshake netlist) pairs.
std::vector<std::pair<std::string, hsnet::Netlist>> paper_and_example_nets() {
  std::vector<std::pair<std::string, hsnet::Netlist>> nets;
  for (const char* name : {"systolic", "wagging", "stack", "ssem"}) {
    nets.emplace_back(name,
                      balsa::compile_source(designs::design(name).source));
  }
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(BB_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".balsa") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    const auto source = util::read_file(path.string());
    if (!source) {
      ADD_FAILURE() << "cannot read " << path;
      continue;
    }
    for (const auto& procedure : balsa::parse_program(*source)) {
      nets.emplace_back(path.filename().string() + ":" + procedure.name,
                        balsa::compile(procedure));
    }
  }
  return nets;
}

TEST(Flow, WarmCacheHitsAreLintCleanAndMatchTheUncachedFlow) {
  // One cache shared by a cold and a warm pass over every design.  The
  // warm pass hits on every controller, and each hit is a controller the
  // reference MN lint (re-extracting the flow table from the spec) finds
  // clean, with the uncached flow's report and Verilog.
  const auto nets = paper_and_example_nets();
  ASSERT_GT(nets.size(), 4u);
  minimalist::SynthCache cache;
  FlowOptions cached = FlowOptions::optimized();
  cached.cache_instance = &cache;
  for (const auto& [label, net] : nets) synthesize_control(net, cached);

  for (const auto& [label, net] : nets) {
    SCOPED_TRACE(label);
    const auto warm = synthesize_control(net, cached);
    const auto fresh = synthesize_control(net, FlowOptions::optimized());
    EXPECT_EQ(report(warm), report(fresh));
    EXPECT_EQ(netlist::to_verilog(warm.gates),
              netlist::to_verilog(fresh.gates));

    // The flow's controllers, compiled the way the flow compiles them.
    std::vector<ch::Program> programs;
    for (const int id : net.control_ids()) {
      programs.push_back(hsnet::to_ch(net.component(id)));
    }
    opt::ClusterOptions copts;
    copts.max_states = cached.max_states;
    const auto clustered = opt::optimize(std::move(programs), copts);
    ASSERT_EQ(clustered.size(), warm.controllers.size());
    ASSERT_EQ(warm.timings.controllers.size(), warm.controllers.size());
    for (std::size_t i = 0; i < clustered.size(); ++i) {
      const auto& ctrl = warm.controllers[i];
      SCOPED_TRACE(ctrl.name);
      EXPECT_TRUE(warm.timings.controllers[i].cache_hit);
      const bm::Spec spec = bm::compile(*clustered[i].program.body,
                                        clustered[i].program.name);
      const lint::Report mn = lint::lint_two_level(ctrl, spec);
      EXPECT_TRUE(mn.empty()) << mn.to_text();
      EXPECT_EQ(ctrl.to_sol(), fresh.controllers[i].to_sol());
    }
  }
}

TEST(Flow, AnalyzeControlCollectsFindingsWithoutAborting) {
  const auto net =
      balsa::compile_source(designs::systolic_counter().source);
  const AnalyzeResult analyzed = analyze_control(
      net, FlowOptions::optimized(), lint::LintOptions{}, /*deep=*/true);
  EXPECT_EQ(analyzed.report.count(lint::Severity::kError), 0u)
      << analyzed.report.to_text();
  EXPECT_EQ(analyzed.report.count(lint::Severity::kWarning), 0u)
      << analyzed.report.to_text();
  EXPECT_TRUE(analyzed.skipped.empty());
}

TEST(Flow, UnknownDesignThrows) {
  EXPECT_THROW(run_benchmark("nonesuch", FlowOptions::optimized()),
               std::invalid_argument);
}

TEST(System, ChannelsAvailableBeforeStart) {
  const auto net =
      balsa::compile_source(designs::systolic_counter().source);
  System system(net, FlowOptions::optimized());
  const auto nets = system.chan("count");
  EXPECT_GE(nets.req, 0);
  EXPECT_GE(nets.ack, 0);
  system.start();
  EXPECT_THROW(system.chan("carry"), std::logic_error);
}

TEST(System, StartTwiceThrows) {
  const auto net =
      balsa::compile_source(designs::systolic_counter().source);
  System system(net, FlowOptions::optimized());
  system.start();
  EXPECT_THROW(system.start(), std::logic_error);
}

// ---- graceful degradation (FlowOptions::strict) ----

hsnet::Netlist stack_netlist() {
  return balsa::compile_source(designs::design("stack").source);
}

FlowOptions budgeted(long long budget, bool strict) {
  FlowOptions options = FlowOptions::optimized();
  options.work_budget = budget;
  options.strict = strict;
  return options;
}

TEST(Degradation, StrictBudgetBlowoutFailsFast) {
  const auto net = stack_netlist();
  try {
    synthesize_control(net, budgeted(1, /*strict=*/true));
    FAIL() << "a 1-op budget must abort the strict flow";
  } catch (const FlowError& e) {
    EXPECT_EQ(e.stage(), FlowStage::kSynthesis);
    EXPECT_EQ(e.diagnostic().rule, "FL002");
  }
}

TEST(Degradation, NonStrictDegradesOnlyOverBudgetControllers) {
  const auto net = stack_netlist();
  const auto healthy = synthesize_control(net, budgeted(-1, /*strict=*/true));
  ASSERT_GE(healthy.info.size(), 2u);

  // Controllers differ widely in synthesis cost, so some budget in this
  // sweep separates them: the expensive ones degrade, the cheap ones
  // survive untouched.  (The sweep keeps the test independent of the
  // exact op counts, which shift as the synthesis passes evolve.)
  ControlResult degraded;
  bool split = false;
  for (const long long budget :
       {1000LL, 5000LL, 20000LL, 100000LL, 500000LL, 2000000LL}) {
    degraded = synthesize_control(net, budgeted(budget, /*strict=*/false));
    if (!degraded.failures.empty() &&
        degraded.failures.size() < healthy.info.size()) {
      split = true;
      break;
    }
  }
  ASSERT_TRUE(split) << "no budget separated the controllers";

  std::set<std::string> failed;
  for (const ControllerFailure& f : degraded.failures) {
    failed.insert(f.controller);
    EXPECT_EQ(f.stage, FlowStage::kSynthesis);
    EXPECT_EQ(f.rule, "FL002");
    EXPECT_FALSE(f.reason.empty());
    EXPECT_FALSE(f.fallback.empty());
    EXPECT_FALSE(f.members.empty());
  }

  // Every surviving controller's report line is byte-identical to the
  // unlimited-budget run's.
  std::set<std::string> degraded_lines;
  for (const std::string& line : util::split(report(degraded), "\n")) {
    degraded_lines.insert(line);
  }
  for (const ControllerInfo& info : healthy.info) {
    if (failed.count(info.name)) continue;
    const std::string line =
        info.name + ": " + std::to_string(info.states) + " states, " +
        std::to_string(info.products) + " products, " +
        std::to_string(info.literals) + " literals, area " +
        std::to_string(info.area);
    EXPECT_TRUE(degraded_lines.count(line)) << "missing: " << line;
  }

  // Each degradation is also surfaced as an FL005 lint warning.
  int fl005 = 0;
  for (const auto& diag : degraded.lint_report.diagnostics()) {
    if (diag.rule == "FL005") ++fl005;
  }
  EXPECT_EQ(fl005, static_cast<int>(degraded.failures.size()));

  // report() names every degraded controller.
  const std::string text = report(degraded);
  for (const std::string& name : failed) {
    EXPECT_NE(text.find("degraded " + name), std::string::npos);
  }
}

TEST(Degradation, NonStrictFullyDegradedRunStillSimulates) {
  // A 1-op budget degrades every synthesized controller to the
  // per-component baseline; the design must still pass its benchmark.
  FlowOptions options = budgeted(1, /*strict=*/false);
  const auto result = synthesize_control(stack_netlist(), options);
  EXPECT_FALSE(result.failures.empty());
  const auto r = run_benchmark("stack", options);
  EXPECT_TRUE(r.ok) << r.detail;
}

/// The members each fallback piece of a degraded run replaced, in order.
std::vector<std::string> replaced_members(const ControlResult& result) {
  std::vector<std::string> out;
  for (const ControllerInfo& info : result.info) {
    out.insert(out.end(), info.members.begin(), info.members.end());
  }
  return out;
}

TEST(Degradation, CallFragmentsDegradeToTheirCallComponentOnce) {
  if (!util::Failpoints::compiled_in()) GTEST_SKIP() << "no failpoints";
  // Systolic clusters into one controller that absorbed the loop, the
  // sequencer and all eight T2 fragments of the call ($BrzCall#2.fragK).
  // A widened product fails that controller's MN lint; non-strict, it
  // degrades to the three components, the call replaced once.
  const auto net = balsa::compile_source(designs::systolic_counter().source);
  FlowOptions options = FlowOptions::optimized();
  options.strict = false;
  options.jobs = 1;
  minimalist::SynthCache cache;
  options.cache_instance = &cache;
  ASSERT_TRUE(util::Failpoints::set("flow.synthesis.widen", "once"));
  ControlResult degraded;
  try {
    degraded = synthesize_control(net, options);
  } catch (...) {
    util::Failpoints::clear();
    throw;
  }
  util::Failpoints::clear();

  ASSERT_EQ(degraded.failures.size(), 1u);
  const ControllerFailure& failure = degraded.failures[0];
  EXPECT_EQ(failure.stage, FlowStage::kLint);
  EXPECT_EQ(failure.rule, "FL005");
  EXPECT_EQ(failure.members.size(), 10u);
  EXPECT_EQ(failure.fallback, "per-component baseline (3 template(s), 0 "
                              "synthesized)");
  EXPECT_EQ(replaced_members(degraded),
            (std::vector<std::string>{"$BrzLoop#1", "$BrzSequence#0",
                                      "$BrzCall#2"}));
  int fl005 = 0;
  for (const auto& diag : degraded.lint_report.diagnostics()) {
    if (diag.rule == "FL005") ++fl005;
  }
  EXPECT_EQ(fl005, 1);
}

TEST(Degradation, BudgetBlowoutDegradesAControllerWithCallFragments) {
  // The same fallback without failpoints: a 1-op budget fails synthesis.
  const auto net = balsa::compile_source(designs::systolic_counter().source);
  const auto degraded = synthesize_control(net, budgeted(1, /*strict=*/false));
  ASSERT_EQ(degraded.failures.size(), 1u);
  EXPECT_EQ(degraded.failures[0].rule, "FL002");
  EXPECT_EQ(replaced_members(degraded),
            (std::vector<std::string>{"$BrzLoop#1", "$BrzSequence#0",
                                      "$BrzCall#2"}));
}

TEST(Degradation, EffectiveWorkBudgetResolution) {
  FlowOptions options;
  options.work_budget = 1234;
  EXPECT_EQ(effective_work_budget(options), 1234u);
  options.work_budget = -1;
  EXPECT_EQ(effective_work_budget(options), 0u);

  options.work_budget = 0;
  setenv("BB_WORK_BUDGET", "777", 1);
  EXPECT_EQ(effective_work_budget(options), 777u);
  unsetenv("BB_WORK_BUDGET");
  EXPECT_EQ(effective_work_budget(options), 0u);
}

TEST(Degradation, MalformedWorkBudgetEnvMeansUnlimited) {
  // Garbage or trailing text must not prefix-parse into a tiny cap
  // ("1e6" used to become a 1-op budget that degraded every controller).
  FlowOptions options;
  for (const char* bad : {"1e6", "10x", "abc", "-5", ""}) {
    setenv("BB_WORK_BUDGET", bad, 1);
    EXPECT_EQ(effective_work_budget(options), 0u) << "'" << bad << "'";
  }
  unsetenv("BB_WORK_BUDGET");
}

}  // namespace
}  // namespace bb::flow
