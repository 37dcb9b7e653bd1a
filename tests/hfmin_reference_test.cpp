// Differential tests of the Minimalist substitute's two halves.
//
// DHF candidate generation: minimalist::dhf_candidates (blocking-matrix
// expansion over packed cubes, walking only contested variables) against
// the reference below, which re-checks every single-variable raise of
// every variable against the whole OFF set and every privilege with
// byte-per-literal cubes and deduplicates through the candidates'
// strings.  Both must produce the same candidates in the same order and
// charge the work budget the same number of times, on every function of
// the paper designs, the examples, the fuzz regression corpus, generated
// fuzz designs, seeded random function specifications and hand-built
// seeds that place free and contested variables around rotation starts.
//
// Flow-table extraction: minimalist::extract (interned signals) against
// the name-keyed extractor of tests/reference_funcspec.hpp.  Both must
// give cube-for-cube the same MachineSpec, or refuse the same machines,
// on every controller of the same designs and on random legal CH
// controllers (tests/ch_generator.hpp, seeds 1..200).
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/balsa/compile.hpp"
#include "src/balsa/parser.hpp"
#include "src/bm/compile.hpp"
#include "src/bm/parse.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/flow.hpp"
#include "src/fuzz/campaign.hpp"
#include "src/fuzz/gen.hpp"
#include "src/hsnet/to_ch.hpp"
#include "src/minimalist/funcspec.hpp"
#include "src/minimalist/hfmin.hpp"
#include "src/opt/cluster.hpp"
#include "tests/ch_generator.hpp"
#include "tests/reference_cube.hpp"
#include "tests/reference_funcspec.hpp"

#if !defined(BB_EXAMPLES_DIR) || !defined(BB_REGRESSION_DIR)
#error "BB_EXAMPLES_DIR and BB_REGRESSION_DIR must name the source corpora"
#endif

namespace bb::minimalist {
namespace {

using logic::Cube;
using logic::Lit;
using logic::reference::ByteCube;

// ---------- the reference ----------

struct RefPrivilege {
  ByteCube transition;
  ByteCube anchor;
};

struct RefSpec {
  std::vector<ByteCube> off;
  std::vector<RefPrivilege> privileges;
};

bool ref_disjoint_from_off(const ByteCube& cube, const RefSpec& spec) {
  for (const ByteCube& c : spec.off) {
    if (cube.intersects(c)) return false;
  }
  return true;
}

bool ref_anchors_ok(const ByteCube& cube, const RefSpec& spec) {
  for (const RefPrivilege& p : spec.privileges) {
    if (cube.intersects(p.transition) && !cube.agrees_with_fixed(p.anchor)) {
      return false;
    }
  }
  return true;
}

ByteCube ref_expand_in_order(const ByteCube& seed, const RefSpec& spec,
                             std::size_t state_base,
                             const std::vector<std::size_t>& order) {
  ByteCube current = seed;
  for (const std::size_t v : order) {
    if (current[v] == Lit::kDash) continue;
    if (v >= state_base && seed[v] == Lit::kOne) continue;  // anchored
    const ByteCube raised = current.raised(v);
    if (ref_disjoint_from_off(raised, spec) && ref_anchors_ok(raised, spec)) {
      current = raised;
    }
  }
  return current;
}

std::vector<std::string> ref_candidates(const FuncSpec& f,
                                        std::size_t num_vars,
                                        std::size_t state_base,
                                        util::WorkBudget* budget) {
  RefSpec spec;
  for (const Cube& c : f.off.cubes()) spec.off.push_back(ByteCube::of(c));
  for (const Privilege& p : f.privileges) {
    spec.privileges.push_back(
        {ByteCube::of(p.transition), ByteCube::of(p.anchor)});
  }
  std::vector<ByteCube> rows;
  for (const Cube& c : f.on_required) rows.push_back(ByteCube::of(c));
  for (const Cube& c : f.on_points) rows.push_back(ByteCube::of(c));
  for (const ByteCube& r : rows) {
    if (!ref_disjoint_from_off(r, spec) || !ref_anchors_ok(r, spec)) {
      throw std::runtime_error("reference: row is not a DHF implicant");
    }
  }

  std::vector<std::string> candidates;
  std::set<std::string> seen;
  const auto add_candidate = [&](const ByteCube& c) {
    if (seen.insert(c.to_string()).second) {
      candidates.push_back(c.to_string());
    }
  };
  std::vector<std::size_t> order(num_vars);
  for (std::size_t v = 0; v < num_vars; ++v) order[v] = v;
  for (const ByteCube& r : rows) {
    if (budget != nullptr) budget->charge();
    add_candidate(ref_expand_in_order(r, spec, state_base, order));
    std::vector<std::size_t> rev(order.rbegin(), order.rend());
    add_candidate(ref_expand_in_order(r, spec, state_base, rev));
    const std::size_t rotations = std::min<std::size_t>(6, num_vars);
    for (std::size_t k = 1; k <= rotations; ++k) {
      if (budget != nullptr) budget->charge();
      std::vector<std::size_t> rot = order;
      std::rotate(rot.begin(), rot.begin() + (k * num_vars) / (rotations + 1),
                  rot.end());
      add_candidate(ref_expand_in_order(r, spec, state_base, rot));
    }
  }
  return candidates;
}

/// Asserts identical candidates and budget charges; returns the number of
/// candidates compared.
std::size_t expect_same_candidates(const FuncSpec& f, std::size_t num_vars,
                                   std::size_t state_base) {
  SCOPED_TRACE("function " + f.name);
  util::WorkBudget ref_budget;
  const std::vector<std::string> expected =
      ref_candidates(f, num_vars, state_base, &ref_budget);
  util::WorkBudget budget;
  std::vector<std::string> actual;
  for (const Cube& c : dhf_candidates(f, num_vars, state_base, &budget)) {
    actual.push_back(c.to_string());
  }
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(budget.used(), ref_budget.used());
  return expected.size();
}

// ---------- flow-table extraction against the reference ----------

/// Every field of `m`, one cube per line.
std::string render(const MachineSpec& m) {
  std::ostringstream out;
  out << "machine " << m.name << " vars " << m.num_vars << "\ninputs";
  for (const std::string& i : m.inputs) out << ' ' << i;
  out << "\nstate bits";
  for (const std::string& y : m.state_bits) out << ' ' << y;
  out << "\ncodes";
  for (const auto& code : m.state_codes) {
    out << ' ';
    for (const bool b : code) out << b;
  }
  out << "\ninitial ";
  for (const bool b : m.initial_state_code) out << b;
  out << ' ';
  for (const bool b : m.initial_outputs) out << b;
  out << '\n';
  for (const FuncSpec& f : m.functions) {
    out << "fn " << f.name << (f.is_state_bit ? " state" : "") << " off-vars "
        << f.off.num_vars() << '\n';
    const auto cubes = [&](const char* kind, const std::vector<Cube>& list) {
      for (const Cube& c : list) {
        out << "  " << kind << ' ' << c.to_string() << '\n';
      }
    };
    cubes("required", f.on_required);
    cubes("point", f.on_points);
    cubes("off", f.off.cubes());
    for (const Privilege& p : f.privileges) {
      out << "  privilege " << p.transition.to_string() << " anchor "
          << p.anchor.to_string() << '\n';
    }
  }
  return out.str();
}

/// What extracting `spec` threw: a runtime_error's message, "logic_error"
/// for a missing value (the reference's std::map::at), or "".
template <typename Extract>
std::string extraction_error(const bm::Spec& spec, Extract&& extract_fn,
                             std::optional<MachineSpec>* machine) {
  try {
    *machine = extract_fn(spec);
  } catch (const std::runtime_error& e) {
    return e.what();
  } catch (const std::logic_error&) {
    return "logic_error";
  }
  return "";
}

/// Extracts `spec` with both extractors and asserts the same machine or
/// the same refusal.  Returns the machine, or nullopt when both refused.
std::optional<MachineSpec> expect_same_machine(const bm::Spec& spec) {
  std::optional<MachineSpec> expected, actual;
  const std::string expected_error = extraction_error(
      spec, [](const bm::Spec& s) { return reference::extract(s); },
      &expected);
  const std::string actual_error = extraction_error(
      spec, [](const bm::Spec& s) { return extract(s); }, &actual);
  EXPECT_EQ(actual_error, expected_error);
  if (actual && expected) {
    EXPECT_EQ(render(*actual), render(*expected));
  }
  return actual;
}

TEST(ExtractReference, GeneratedProgramMachinesMatchTheReference) {
  std::size_t machines = 0;
  for (unsigned seed = 1; seed <= 200; ++seed) {
    const ch::ExprPtr program = ChGenerator(seed).controller();
    SCOPED_TRACE("seed " + std::to_string(seed));
    if (expect_same_machine(bm::compile(*program, "m"))) ++machines;
  }
  EXPECT_GT(machines, 150u);
}

TEST(ExtractReference, RefusalsMatchTheReference) {
  // State 1 entered with two valuations; an arc leaving a state the
  // initial state cannot reach (no output values there); and an ON/OFF
  // conflict from two arcs that claim opposite outputs for one code.
  const char* const specs[] = {
      "name twice\ninput a 0\ninput b 0\noutput x 0\n0 1 a+ | x+\n"
      "0 1 b+ | x+\n1 0 a- | x-\n",
      "name orphan\ninput a 0\noutput x 0\n0 1 a+ | x+\n1 0 a- | x-\n"
      "2 0 a+ | x+\n",
      "name clash\ninput a 0\noutput x 0\noutput y 0\n0 1 a+ | x+\n"
      "0 2 a+ | y+\n1 0 a- | x-\n2 0 a- | y-\n",
  };
  for (const char* text : specs) {
    SCOPED_TRACE(text);
    EXPECT_FALSE(expect_same_machine(bm::parse_bms(text)).has_value());
  }
}

// ---------- function specifications from real designs ----------

/// Every function of every controller of `net`, clustered (the optimized
/// flow) and unclustered (one controller per component), compared, and
/// every controller's extraction compared with the reference extractor.
/// Returns the number of functions compared.
std::size_t check_netlist(const hsnet::Netlist& net) {
  std::vector<ch::Program> programs, copies;
  for (const int id : net.control_ids()) {
    programs.push_back(hsnet::to_ch(net.component(id)));
    copies.push_back(programs.back().clone());
  }
  opt::ClusterOptions copts;
  copts.max_states = flow::FlowOptions::optimized().max_states;
  std::vector<opt::ClusteredProgram> controllers =
      opt::optimize(std::move(programs), copts);
  for (auto& p : opt::wrap(std::move(copies))) {
    controllers.push_back(std::move(p));
  }
  std::size_t functions = 0;
  for (const auto& cp : controllers) {
    SCOPED_TRACE("controller " + cp.program.name);
    bm::Spec spec;
    try {
      spec = bm::compile(*cp.program.body, cp.program.name);
    } catch (const std::exception&) {
      continue;  // not a Burst-Mode machine; the flow rejects it too
    }
    const std::optional<MachineSpec> machine = expect_same_machine(spec);
    if (!machine) continue;  // not synthesizable; the flow rejects it too
    for (const FuncSpec& f : machine->functions) {
      expect_same_candidates(f, machine->num_vars, machine->inputs.size());
      ++functions;
    }
  }
  return functions;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

std::vector<std::filesystem::path> files_with(const char* dir,
                                              std::set<std::string> exts) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        exts.count(entry.path().extension().string()) != 0) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

class PaperDesignCandidates : public ::testing::TestWithParam<std::string> {};

TEST_P(PaperDesignCandidates, MatchTheReference) {
  const auto net =
      balsa::compile_source(designs::design(GetParam()).source);
  EXPECT_GT(check_netlist(net), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, PaperDesignCandidates,
                         ::testing::Values("systolic", "wagging", "stack",
                                           "ssem"),
                         [](const auto& info) { return info.param; });

TEST(HfminReference, ExampleCandidatesMatchTheReference) {
  const auto paths = files_with(BB_EXAMPLES_DIR, {".balsa"});
  ASSERT_FALSE(paths.empty());
  for (const auto& path : paths) {
    SCOPED_TRACE(path.filename().string());
    for (const auto& procedure : balsa::parse_program(read_file(path))) {
      EXPECT_GT(check_netlist(balsa::compile(procedure)), 0u);
    }
  }
}

TEST(HfminReference, FuzzRegressionCandidatesMatchTheReference) {
  const auto paths = files_with(BB_REGRESSION_DIR, {".balsa", ".recipe"});
  ASSERT_FALSE(paths.empty());
  for (const auto& path : paths) {
    SCOPED_TRACE(path.filename().string());
    const fuzz::Reproducer repro =
        fuzz::parse_reproducer(path.filename().string(), read_file(path));
    check_netlist(repro.mode == "balsa"
                      ? balsa::compile(balsa::parse_procedure(repro.design))
                      : fuzz::build_recipe(fuzz::parse_recipe(repro.design)));
  }
}

TEST(HfminReference, GeneratedDesignCandidatesMatchTheReference) {
  fuzz::GenOptions gen;
  gen.max_commands = 10;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::SplitMix64 rng(seed);
    check_netlist(balsa::compile(fuzz::generate_procedure(rng, gen)));
    check_netlist(fuzz::build_recipe(fuzz::generate_recipe(rng, gen)));
  }
}

// ---------- seeded random function specifications ----------

Cube random_cube(std::mt19937& rng, std::size_t n, std::size_t fixed_below,
                 double dash) {
  std::bernoulli_distribution is_dash(dash);
  std::bernoulli_distribution bit(0.5);
  Cube c(n);
  for (std::size_t v = 0; v < fixed_below; ++v) {
    if (!is_dash(rng)) c.set(v, bit(rng) ? Lit::kOne : Lit::kZero);
  }
  return c;
}

/// A random function whose rows are all hazard-free implicants: OFF cubes
/// and privileges that would make a row illegal are redrawn.  Some
/// transitions are rows with a few literals raised, so anchors matter.
FuncSpec random_spec(std::mt19937& rng, std::size_t num_vars,
                     std::size_t state_base) {
  const auto pick = [&](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  FuncSpec f;
  f.name = "random";
  const std::size_t rows = pick(1, 6);
  for (std::size_t r = 0; r < rows; ++r) {
    (r % 2 == 0 ? f.on_required : f.on_points)
        .push_back(random_cube(rng, num_vars, num_vars, 0.25));
  }
  f.off = logic::Cover(num_vars);
  const auto legal = [&](const FuncSpec& g) {
    for (const Cube& r : g.on_required) {
      if (!is_dhf_implicant(r, g)) return false;
    }
    for (const Cube& r : g.on_points) {
      if (!is_dhf_implicant(r, g)) return false;
    }
    return true;
  };
  const std::size_t off = pick(0, 40);
  for (std::size_t tries = 0; f.off.size() < off && tries < 400; ++tries) {
    FuncSpec g = f;
    g.off.add(random_cube(rng, num_vars, num_vars, 0.6));
    if (legal(g)) f = std::move(g);
  }
  const std::size_t privileges = pick(0, 8);
  for (std::size_t tries = 0; f.privileges.size() < privileges && tries < 400;
       ++tries) {
    Cube transition = random_cube(rng, num_vars, num_vars, 0.5);
    if (tries % 2 == 0) {
      transition = f.on_required[pick(0, f.on_required.size() - 1)];
      for (std::size_t k = pick(1, 3); k > 0; --k) {
        transition.set(pick(0, num_vars - 1), Lit::kDash);
      }
    }
    FuncSpec g = f;
    g.privileges.push_back(
        {transition, random_cube(rng, num_vars, state_base, 0.6)});
    if (legal(g)) f = std::move(g);
  }
  return f;
}

TEST(HfminReference, RandomSpecCandidatesMatchTheReference) {
  std::mt19937 rng(2002);
  std::size_t candidates = 0;
  for (int i = 0; i < 400; ++i) {
    const std::size_t num_vars =
        std::uniform_int_distribution<std::size_t>(1, 70)(rng);
    const std::size_t state_base =
        std::uniform_int_distribution<std::size_t>(0, num_vars)(rng);
    SCOPED_TRACE("spec " + std::to_string(i) + ", vars " +
                 std::to_string(num_vars));
    candidates += expect_same_candidates(random_spec(rng, num_vars, state_base),
                                         num_vars, state_base);
  }
  EXPECT_GT(candidates, 400u);
}

/// A random function shaped like a one-hot state function over `inputs`
/// input and `states` state variables: every row holds 1-2 state bits at
/// 1 (the variables expansion pins) and the other state bits at 0.  OFF
/// cubes and privilege transitions are copies of a row with one pinned
/// bit lowered, alone (a conflict count of 1, on the pin) or with one
/// free literal flipped too (a count of 2), with some other literals
/// raised; every fourth one is drawn at random instead.  Any that would
/// make a row illegal is redrawn.
FuncSpec random_one_hot_spec(std::mt19937& rng, std::size_t inputs,
                             std::size_t states) {
  const auto pick = [&](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  const std::size_t num_vars = inputs + states;
  FuncSpec f;
  f.name = "one-hot";
  std::vector<Cube> rows;
  for (std::size_t r = pick(1, 6); r > 0; --r) {
    Cube row = random_cube(rng, num_vars, inputs, 0.25);
    for (std::size_t v = inputs; v < num_vars; ++v) row.set(v, Lit::kZero);
    for (std::size_t k = pick(1, 2); k > 0; --k) {
      row.set(pick(inputs, num_vars - 1), Lit::kOne);
    }
    (r % 2 == 0 ? f.on_required : f.on_points).push_back(row);
    rows.push_back(row);
  }
  const auto near_row = [&](std::size_t k) {
    if (k % 4 == 3) return random_cube(rng, num_vars, num_vars, 0.6);
    Cube c = rows[pick(0, rows.size() - 1)];
    std::vector<std::size_t> pinned, free;
    for (std::size_t v = 0; v < num_vars; ++v) {
      if (v >= inputs && c[v] == Lit::kOne) {
        pinned.push_back(v);
      } else if (c[v] != Lit::kDash) {
        free.push_back(v);
      }
    }
    for (std::size_t n = pick(0, 3); n > 0 && !free.empty(); --n) {
      c.set(free[pick(0, free.size() - 1)], Lit::kDash);
    }
    c.set(pinned[pick(0, pinned.size() - 1)], Lit::kZero);
    if (k % 2 == 1) {
      std::vector<std::size_t> fixed;
      for (const std::size_t v : free) {
        if (c[v] != Lit::kDash) fixed.push_back(v);
      }
      if (!fixed.empty()) {
        const std::size_t v = fixed[pick(0, fixed.size() - 1)];
        c.set(v, c[v] == Lit::kOne ? Lit::kZero : Lit::kOne);
      }
    }
    return c;
  };
  const auto legal = [&](const FuncSpec& g) {
    for (const Cube& r : rows) {
      if (!is_dhf_implicant(r, g)) return false;
    }
    return true;
  };
  f.off = logic::Cover(num_vars);
  const std::size_t off = pick(0, 40);
  for (std::size_t tries = 0; f.off.size() < off && tries < 400; ++tries) {
    FuncSpec g = f;
    g.off.add(near_row(tries));
    if (legal(g)) f = std::move(g);
  }
  const std::size_t privileges = pick(0, 8);
  for (std::size_t tries = 0; f.privileges.size() < privileges && tries < 400;
       ++tries) {
    FuncSpec g = f;
    g.privileges.push_back(
        {near_row(tries), random_cube(rng, num_vars, inputs, 0.6)});
    if (legal(g)) f = std::move(g);
  }
  return f;
}

TEST(HfminReference, OneHotSpecCandidatesMatchTheReference) {
  std::mt19937 rng(1962);
  std::size_t candidates = 0;
  for (int i = 0; i < 300; ++i) {
    const std::size_t inputs =
        std::uniform_int_distribution<std::size_t>(0, 24)(rng);
    const std::size_t states =
        std::uniform_int_distribution<std::size_t>(1, 40)(rng);
    SCOPED_TRACE("one-hot spec " + std::to_string(i) + ", " +
                 std::to_string(inputs) + " inputs, " +
                 std::to_string(states) + " states");
    candidates += expect_same_candidates(
        random_one_hot_spec(rng, inputs, states), inputs + states, inputs);
  }
  EXPECT_GT(candidates, 300u);
}

TEST(HfminReference, BudgetRunsOutAtTheSameCharge) {
  std::mt19937 rng(5);
  const FuncSpec f = random_spec(rng, 40, 30);
  util::WorkBudget unlimited;
  (void)dhf_candidates(f, 40, 30, &unlimited);
  const std::uint64_t limit = unlimited.used() / 2;
  ASSERT_GT(limit, 0u);
  util::WorkBudget ref_budget(limit), budget(limit);
  EXPECT_THROW(ref_candidates(f, 40, 30, &ref_budget),
               util::WorkBudgetExceeded);
  EXPECT_THROW(dhf_candidates(f, 40, 30, &budget), util::WorkBudgetExceeded);
  EXPECT_EQ(budget.used(), ref_budget.used());
}

TEST(HfminReference, IllegalRowThrowsLikeTheReference) {
  FuncSpec f;
  f.name = "clash";
  f.on_required = {Cube::parse("1-0")};
  f.off = logic::Cover(3, {Cube::parse("1--")});
  EXPECT_THROW(ref_candidates(f, 3, 3, nullptr), std::runtime_error);
  EXPECT_THROW(dhf_candidates(f, 3, 3, nullptr), std::runtime_error);
}

// ---------- hand-built seeds around the contested-variable walk ----------

/// The candidates of `f` as strings, after comparing them and their
/// budget charges with the reference.
std::vector<std::string> checked_candidates(const FuncSpec& f,
                                            std::size_t num_vars,
                                            std::size_t state_base) {
  expect_same_candidates(f, num_vars, state_base);
  std::vector<std::string> out;
  for (const Cube& c : dhf_candidates(f, num_vars, state_base)) {
    out.push_back(c.to_string());
  }
  return out;
}

TEST(HfminReference, SeedWithNoContestedVariables) {
  // The one OFF cube conflicts with the seed only on its pinned state bit
  // (variable 4), so it leaves the matrix: every other fixed literal is
  // free, and every order raises all of them.
  FuncSpec f;
  f.name = "free";
  f.on_required = {Cube::parse("011010")};
  f.off = logic::Cover(6, {Cube::parse("----0-")});
  EXPECT_EQ(checked_candidates(f, 6, 4),
            std::vector<std::string>{"----1-"});
}

TEST(HfminReference, FreeVariablesInterleavedWithContestedOnes) {
  // Seed 10101010: variables 2, 4 and 6 are free; 1 and 3 share one OFF
  // cube (only one of them can rise), 7 is held by another, 5 reaches a
  // privileged transition that is legal only once 0, the anchor's only
  // conflict, has risen.  Variable 0 blocks nothing itself but is
  // contested all the same: raising it moves the anchor count.
  FuncSpec f;
  f.name = "interleaved";
  f.on_required = {Cube::parse("10101010")};
  f.off = logic::Cover(
      8, {Cube::parse("-1-1----"), Cube::parse("-------1")});
  f.privileges = {{Cube::parse("-----1--"), Cube::parse("0-------")}};
  EXPECT_EQ(checked_candidates(f, 8, 8),
            (std::vector<std::string>{"---0---0", "-0---0-0", "---0-0-0"}));
}

TEST(HfminReference, RotationStartsBetweenContestedVariables) {
  // Fourteen variables, two contested (2 and 9, one OFF cube: whichever
  // rises first holds the other).  The rotations start at 2, 4, 6, 8, 10
  // and 12: 4-8 fall between the contested variables and walk 9 first,
  // 10 and 12 fall after the last one and wrap around to 2.
  FuncSpec f;
  f.name = "rotations";
  f.on_required = {Cube::parse("00000000000000")};
  f.off = logic::Cover(14, {Cube::parse("--1------1----")});
  EXPECT_EQ(checked_candidates(f, 14, 14),
            (std::vector<std::string>{"---------0----", "--0-----------"}));
}

}  // namespace
}  // namespace bb::minimalist
