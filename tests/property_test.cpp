// Property-based tests: randomized inputs, invariant checks.
//
//  * logic engine: complement exactness, prime-implicant properties and
//    covering-solution soundness on random functions;
//  * the full synthesis pipeline: randomly generated legal CH programs
//    must expand, compile to valid Burst-Mode machines, synthesize to
//    hazard-free logic, and replay their specifications.
#include <gtest/gtest.h>

#include <random>

#include "src/bm/compile.hpp"
#include "src/bm/validate.hpp"
#include "src/ch/printer.hpp"
#include "src/logic/cover.hpp"
#include "src/logic/ucp.hpp"
#include "src/minimalist/synth.hpp"
#include "tests/reference_primes.hpp"

namespace bb {
namespace {

// ---------- logic engine properties ----------

logic::Cover random_cover(std::mt19937& rng, std::size_t num_vars,
                          std::size_t num_cubes) {
  logic::Cover cover(num_vars);
  std::uniform_int_distribution<int> lit(0, 2);
  for (std::size_t c = 0; c < num_cubes; ++c) {
    logic::Cube cube(num_vars);
    for (std::size_t v = 0; v < num_vars; ++v) {
      cube.set(v, static_cast<logic::Lit>(lit(rng)));
    }
    cover.add(std::move(cube));
  }
  return cover;
}

class LogicProperties : public ::testing::TestWithParam<int> {};

TEST_P(LogicProperties, ComplementIsExact) {
  std::mt19937 rng(GetParam());
  const std::size_t n = 5;
  const auto f = random_cover(rng, n, 4);
  const auto g = f.complement();
  for (std::size_t m = 0; m < (1u << n); ++m) {
    std::vector<bool> bits(n);
    for (std::size_t v = 0; v < n; ++v) bits[v] = (m >> v) & 1u;
    EXPECT_NE(f.covers_minterm(bits), g.covers_minterm(bits)) << m;
  }
}

TEST_P(LogicProperties, PrimesAreMaximalImplicantsAndCover) {
  std::mt19937 rng(GetParam() + 1000);
  const std::size_t n = 5;
  const auto on = random_cover(rng, n, 3);
  const auto primes = logic::reference::all_primes(on, logic::Cover(n));
  const auto off = on.complement();

  logic::Cover prime_cover(n, primes);
  for (std::size_t m = 0; m < (1u << n); ++m) {
    std::vector<bool> bits(n);
    for (std::size_t v = 0; v < n; ++v) bits[v] = (m >> v) & 1u;
    // The union of primes equals the function.
    EXPECT_EQ(on.covers_minterm(bits), prime_cover.covers_minterm(bits));
  }
  for (const auto& p : primes) {
    // Implicant: disjoint from the OFF-set.
    for (const auto& o : off.cubes()) {
      EXPECT_FALSE(p.intersects(o)) << p.to_string();
    }
    // Maximal: raising any literal hits the OFF-set.
    for (std::size_t v = 0; v < n; ++v) {
      if (p[v] == logic::Lit::kDash) continue;
      const auto raised = p.raised(v);
      bool hits_off = false;
      for (const auto& o : off.cubes()) {
        if (raised.intersects(o)) hits_off = true;
      }
      EXPECT_TRUE(hits_off) << p.to_string() << " raisable at " << v;
    }
  }
}

TEST_P(LogicProperties, UcpSolutionsCoverEveryRow) {
  std::mt19937 rng(GetParam() + 2000);
  logic::UcpProblem p;
  std::uniform_int_distribution<int> cols(4, 10);
  std::uniform_int_distribution<int> rows(2, 8);
  const int num_cols = cols(rng);
  const int num_rows = rows(rng);
  p.column_cost.assign(num_cols, 1.0);
  std::uniform_int_distribution<int> pick(0, num_cols - 1);
  for (int r = 0; r < num_rows; ++r) {
    std::vector<std::size_t> covering;
    const int k = 1 + pick(rng) % 3;
    for (int i = 0; i < k; ++i) covering.push_back(pick(rng));
    p.covers.push_back(covering);
  }
  const auto sol = logic::solve_ucp(p);
  ASSERT_TRUE(sol.feasible);
  for (int r = 0; r < num_rows; ++r) {
    bool covered = false;
    for (const std::size_t c : p.covers[r]) {
      for (const std::size_t chosen : sol.columns) {
        if (c == chosen) covered = true;
      }
    }
    EXPECT_TRUE(covered) << "row " << r;
  }
  EXPECT_LE(sol.columns.size(), static_cast<std::size_t>(num_rows));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogicProperties, ::testing::Range(1, 13));

// ---------- pipeline properties over random CH programs ----------

/// Generates a random *legal* CH body (activity: active) from the
/// Table 1 "yes" rows, bounded in depth and channel count.
class ChGenerator {
 public:
  explicit ChGenerator(unsigned seed) : rng_(seed) {}

  ch::ExprPtr controller() {
    // Complete controller: passive activation enclosing a random body.
    return ch::rep(
        ch::enc_early(ch::ptop(ch::Activity::kPassive, "go"), body(2)));
  }

 private:
  ch::ExprPtr body(int depth) {
    std::uniform_int_distribution<int> pick(0, depth > 0 ? 4 : 0);
    switch (pick(rng_)) {
      case 0:
        return channel();
      case 1:  // sequencing of two active behaviours (A/A row)
        return ch::seq(body(depth - 1), body(depth - 1));
      case 2:  // enc-early A/A
        return ch::enc_early(channel(), body(depth - 1));
      case 3:  // enc-middle A/A (fork/join)
        return ch::enc_middle(channel(), body(depth - 1));
      case 4:  // seq-ov A/A
        return ch::seq_ov(channel(), body(depth - 1));
    }
    return channel();
  }

  ch::ExprPtr channel() {
    return ch::ptop(ch::Activity::kActive,
                    "c" + std::to_string(next_channel_++));
  }

  std::mt19937 rng_;
  int next_channel_ = 0;
};

class PipelineProperties : public ::testing::TestWithParam<int> {};

TEST_P(PipelineProperties, RandomLegalProgramsSynthesize) {
  ChGenerator gen(GetParam());
  const auto program = gen.controller();

  // 1. Expansion and compilation must succeed (Table 1 legality holds by
  //    construction).
  const bm::Spec spec = bm::compile(*program, "random");
  ASSERT_GT(spec.num_states, 0) << ch::to_string(*program);

  // 2. The machine must be a valid Burst-Mode specification.
  const auto check = bm::validate(spec);
  ASSERT_TRUE(check.ok) << ch::to_string(*program) << "\n"
                        << (check.errors.empty() ? "" : check.errors[0]);

  // 3. Hazard-free synthesis must succeed and replay the specification.
  const auto ctrl = minimalist::synthesize(spec);
  const auto report = minimalist::validate_against_spec(ctrl, spec);
  EXPECT_TRUE(report.ok) << ch::to_string(*program) << "\n"
                         << (report.errors.empty() ? "" : report.errors[0]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperties, ::testing::Range(1, 25));

}  // namespace
}  // namespace bb
