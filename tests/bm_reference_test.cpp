// Differential test of the Burst-Mode kernels and of the machines the
// clusterer carries.
//
// The production CH-to-BMS builder, validator and pending-edge analysis
// (src/bm) must give the reference forms' results (tests/reference_bm.hpp)
// byte for byte: the same `.bms` text, the same validation report, the
// same adjacency list and the same early edges.  They are compared on
// every merge the clusterer attempts for the paper designs, the examples
// and the fuzz corpus (generator seed 1, 30 cases per mode), on random
// legal controllers (tests/ch_generator.hpp, seeds 1..200), and on the
// BM001-BM007 violation fixtures.
//
// On the same designs, every clustered controller's carried machine must
// equal a fresh compile of its body, and its carried report must equal
// lint_bm's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/balsa/compile.hpp"
#include "src/balsa/parser.hpp"
#include "src/bm/compile.hpp"
#include "src/bm/parse.hpp"
#include "src/bm/validate.hpp"
#include "src/ch/parser.hpp"
#include "src/ch/printer.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/flow.hpp"
#include "src/fuzz/gen.hpp"
#include "src/hsnet/to_ch.hpp"
#include "src/lint/lint.hpp"
#include "src/opt/cluster.hpp"
#include "src/opt/cluster_observer.hpp"
#include "src/util/prng.hpp"
#include "tests/ch_generator.hpp"
#include "tests/reference_bm.hpp"

#if !defined(BB_EXAMPLES_DIR)
#error "BB_EXAMPLES_DIR must name the examples directory"
#endif

namespace bb::opt {
namespace {

/// The production kernels agree with the reference on one machine.
void expect_same_checks(const bm::Spec& spec) {
  const bm::ValidationResult fast = bm::validate(spec);
  const bm::ValidationResult ref = bm::reference::validate(spec);
  EXPECT_EQ(fast.ok, ref.ok);
  EXPECT_EQ(fast.errors, ref.errors);
  EXPECT_EQ(fast.report.to_text(), ref.report.to_text());
  EXPECT_EQ(bm::adjacency_violations(spec),
            bm::reference::adjacency_violations(spec));
  EXPECT_EQ(bm::early_edges(spec), bm::reference::early_edges(spec));
}

/// The production kernels agree with the reference on one expression:
/// both compile it to the same machine or both reject it the same way.
void expect_same_kernels(const ch::Expr& expr) {
  std::string fast_error = "(none)";
  std::string ref_error = "(none)";
  bm::Spec fast;
  bm::Spec ref;
  try {
    fast = bm::compile(expr, "m");
  } catch (const std::exception& e) {
    fast_error = e.what();
  }
  try {
    ref = bm::reference::compile(expr, "m");
  } catch (const std::exception& e) {
    ref_error = e.what();
  }
  ASSERT_EQ(fast_error, ref_error);
  if (fast_error != "(none)") return;
  ASSERT_EQ(fast.to_bms(), ref.to_bms());
  expect_same_checks(ref);
}

struct Tally {
  std::size_t merges = 0;
  std::size_t accepted = 0;
  std::size_t carried = 0;
};

/// The flow's clustering options: its state cap.
ClusterOptions cluster_options() {
  ClusterOptions copts;
  copts.max_states = flow::FlowOptions::optimized().max_states;
  return copts;
}

/// Every merge the clusterer attempts on `net`, through the kernels.
void check_merges(const hsnet::Netlist& net, Tally& tally) {
  // Merged body text -> verdict; a merge T2's trial pass re-attempts
  // must get the verdict it got the first time.
  std::map<std::string, bool> attempts;
  t2_clustering_observed(
      wrap(hsnet::control_programs(net)), cluster_options(),
      [&](const ch::Expr& body, const std::shared_ptr<const BmCheck>& check) {
        const auto it =
            attempts.emplace(ch::to_string(body), check != nullptr).first;
        EXPECT_EQ(it->second, check != nullptr) << it->first;
      });
  const int max_states = cluster_options().max_states;
  for (const auto& [text, accepted] : attempts) {
    SCOPED_TRACE(text);
    const ch::ExprPtr body = ch::parse(text);
    ASSERT_EQ(ch::to_string(*body), text);
    expect_same_kernels(*body);
    EXPECT_EQ(accepted, bm::reference::bm_synthesizable(*body, max_states));
    ++tally.merges;
    if (accepted) ++tally.accepted;
  }
}

/// Every clustered controller's carried machine and report.
void check_carried(const hsnet::Netlist& net, Tally& tally) {
  for (const ClusteredProgram& cp :
       t2_clustering(wrap(hsnet::control_programs(net)), cluster_options())) {
    SCOPED_TRACE(cp.program.name);
    // Exactly the merged controllers carry a machine.
    ASSERT_EQ(cp.check != nullptr, cp.members.size() > 1);
    if (cp.check == nullptr) continue;
    ++tally.carried;
    const bm::Spec fresh = bm::compile(*cp.program.body, cp.program.name);
    EXPECT_EQ(machine_of(cp).to_bms(), fresh.to_bms());
    EXPECT_EQ(cp.check->validation.report.to_text(),
              lint::lint_bm(fresh).to_text());
    EXPECT_TRUE(cp.check->validation.ok);
  }
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

/// Every procedure of every `examples/*.balsa` file.
std::vector<hsnet::Netlist> example_netlists() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(BB_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".balsa") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<hsnet::Netlist> nets;
  for (const auto& path : paths) {
    for (const auto& procedure : balsa::parse_program(read_file(path))) {
      nets.push_back(balsa::compile(procedure));
    }
  }
  return nets;
}

/// Case i of the fuzz campaign's corpus in `mode` at generator seed 1,
/// size 10 (the campaign's FNV-1a case-seed derivation).
hsnet::Netlist fuzz_case(const std::string& mode, int i) {
  const std::string tag = mode + ":" + std::to_string(i);
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  util::SplitMix64 rng(1 ^ h);
  fuzz::GenOptions gen;
  gen.max_commands = 10;
  return mode == "balsa"
             ? balsa::compile(fuzz::generate_procedure(rng, gen))
             : fuzz::build_recipe(fuzz::generate_recipe(rng, gen));
}

hsnet::Netlist paper_design(const std::string& name) {
  return balsa::compile_source(designs::design(name).source);
}

// ---------- the kernels against the reference ----------

class PaperDesignMerges : public ::testing::TestWithParam<std::string> {};

TEST_P(PaperDesignMerges, MatchTheReference) {
  Tally tally;
  check_merges(paper_design(GetParam()), tally);
  EXPECT_GT(tally.merges, 0u);
  EXPECT_GT(tally.accepted, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, PaperDesignMerges,
                         ::testing::Values("systolic", "wagging", "stack",
                                           "ssem"),
                         [](const auto& info) { return info.param; });

TEST(BmReference, ExampleMergesMatchTheReference) {
  Tally tally;
  for (const hsnet::Netlist& net : example_netlists()) {
    SCOPED_TRACE(net.name());
    check_merges(net, tally);
  }
  EXPECT_GT(tally.merges, 0u);
}

TEST(BmReference, FuzzCorpusMergesMatchTheReference) {
  Tally tally;
  for (const std::string mode : {"balsa", "netlist"}) {
    for (int i = 0; i < 30; ++i) {
      SCOPED_TRACE(mode + ":" + std::to_string(i));
      check_merges(fuzz_case(mode, i), tally);
    }
  }
  EXPECT_GT(tally.merges, 30u);
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_LT(tally.accepted, tally.merges);  // rejections are compared too
}

TEST(BmReference, UnmergedControllersMatchTheReference) {
  // The single-component machines the flow compiles itself.
  for (const char* name : {"systolic", "wagging", "stack", "ssem"}) {
    for (const ch::Program& p : hsnet::control_programs(paper_design(name))) {
      SCOPED_TRACE(p.name);
      expect_same_kernels(*p.body);
    }
  }
}

TEST(BmReference, GeneratedProgramsMatchTheReference) {
  // Random legal controllers reach the seq-ov and active enc-early rows of
  // the expansion, which no paper design or example merge drives.
  for (unsigned seed = 1; seed <= 200; ++seed) {
    const ch::ExprPtr program = ChGenerator(seed).controller();
    SCOPED_TRACE(ch::to_string(*program));
    ASSERT_NO_THROW(bm::reference::compile(*program, "m"));
    expect_same_kernels(*program);
  }
}

TEST(BmReference, ViolationFixturesMatchTheReference) {
  // The BM001-BM007 fixtures of the lint tests, plus a machine with an
  // empty input burst (BM002) and one whose state 1 is entered with
  // two valuations after a repeated edge (BM005 and BM006 together).
  const char* const fixtures[] = {
      "name bidi\ninput a_r 0\noutput b_a 0\n0 1 a_r+ | b_a+\n"
      "1 0 b_a- | a_r-\n",
      "name nondet\ninput a_r 0\noutput x_a 0\noutput y_a 0\n"
      "0 1 a_r+ | x_a+\n0 2 a_r+ | y_a+\n",
      "name subset\ninput a_r 0\ninput b_r 0\noutput x_a 0\noutput y_a 0\n"
      "0 1 a_r+ | x_a+\n0 2 a_r+ b_r+ | y_a+\n",
      "name repeat\ninput a_r 0\noutput a_a 0\n0 1 a_r+ | a_a+\n"
      "1 0 a_r+ | a_a-\n",
      "name reentry\ninput a_r 0\ninput b_r 0\noutput x_a 0\n"
      "0 1 a_r+ | x_a+\n0 1 b_r+ |\n",
      "name orphan\ninput a_r 0\noutput a_a 0\n0 1 a_r+ | a_a+\n"
      "1 0 a_r- | a_a-\n2 0 a_r- | a_a-\n",
      "name both\ninput a_r 0\ninput b_r 0\noutput a_a 0\n"
      "0 1 a_r+ | a_a+\n0 2 b_r+ | a_a+\n2 1 b_r- a_r+ | a_a+\n"
      "1 0 a_r- | a_a-\n",
  };
  std::set<std::string> rules;
  for (const char* text : fixtures) {
    SCOPED_TRACE(text);
    const bm::Spec spec = bm::parse_bms(text);
    expect_same_checks(spec);
    const bm::ValidationResult result = bm::validate(spec);
    for (const lint::Diagnostic& d : result.report.diagnostics()) {
      rules.insert(d.rule);
    }
  }
  bm::Spec empty_burst = bm::parse_bms(fixtures[3]);
  empty_burst.arcs[1].in_burst.transitions.clear();
  expect_same_checks(empty_burst);
  const bm::ValidationResult result = bm::validate(empty_burst);
  for (const lint::Diagnostic& d : result.report.diagnostics()) {
    rules.insert(d.rule);
  }
  EXPECT_EQ(rules, (std::set<std::string>{"BM001", "BM002", "BM003", "BM004",
                                          "BM005", "BM006", "BM007"}));
}

// ---------- the carried machines ----------

class PaperDesignCarriedMachines
    : public ::testing::TestWithParam<std::string> {};

TEST_P(PaperDesignCarriedMachines, EqualAFreshCompile) {
  Tally tally;
  check_carried(paper_design(GetParam()), tally);
  EXPECT_GT(tally.carried, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, PaperDesignCarriedMachines,
                         ::testing::Values("systolic", "wagging", "stack",
                                           "ssem"),
                         [](const auto& info) { return info.param; });

TEST(CarriedMachines, ExamplesAndFuzzCorpusEqualAFreshCompile) {
  Tally tally;
  for (const hsnet::Netlist& net : example_netlists()) {
    SCOPED_TRACE(net.name());
    check_carried(net, tally);
  }
  for (const std::string mode : {"balsa", "netlist"}) {
    for (int i = 0; i < 30; ++i) {
      SCOPED_TRACE(mode + ":" + std::to_string(i));
      check_carried(fuzz_case(mode, i), tally);
    }
  }
  EXPECT_GT(tally.carried, 10u);
}

}  // namespace
}  // namespace bb::opt
