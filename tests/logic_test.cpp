#include <gtest/gtest.h>

#include "src/logic/cover.hpp"
#include "src/logic/cube.hpp"
#include "src/logic/ucp.hpp"
#include "tests/reference_primes.hpp"

namespace bb::logic {
namespace {

using reference::all_primes;
using reference::consensus;

TEST(Cube, ParseAndPrint) {
  const Cube c = Cube::parse("10-");
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], Lit::kOne);
  EXPECT_EQ(c[1], Lit::kZero);
  EXPECT_EQ(c[2], Lit::kDash);
  EXPECT_EQ(c.to_string(), "10-");
}

TEST(Cube, ParseRejectsBadChars) {
  EXPECT_THROW(Cube::parse("10x"), std::invalid_argument);
}

TEST(Cube, Containment) {
  EXPECT_TRUE(Cube::parse("1--").contains(Cube::parse("10-")));
  EXPECT_FALSE(Cube::parse("10-").contains(Cube::parse("1--")));
  EXPECT_TRUE(Cube::parse("---").contains(Cube::parse("011")));
}

TEST(Cube, MintermContainment) {
  const Cube c = Cube::parse("1-0");
  EXPECT_TRUE(c.contains_minterm({true, false, false}));
  EXPECT_TRUE(c.contains_minterm({true, true, false}));
  EXPECT_FALSE(c.contains_minterm({false, true, false}));
}

TEST(Cube, IntersectDisjoint) {
  EXPECT_FALSE(Cube::parse("1-").intersect(Cube::parse("0-")).has_value());
  EXPECT_FALSE(Cube::parse("1-").intersects(Cube::parse("0-")));
}

TEST(Cube, IntersectOverlap) {
  const auto r = Cube::parse("1--").intersect(Cube::parse("-0-"));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->to_string(), "10-");
}

TEST(Cube, Supercube) {
  EXPECT_EQ(Cube::parse("10-").supercube(Cube::parse("11-")).to_string(),
            "1--");
  EXPECT_EQ(Cube::parse("101").supercube(Cube::parse("010")).to_string(),
            "---");
}

TEST(Cube, Distance) {
  EXPECT_EQ(Cube::parse("10").distance(Cube::parse("01")), 2u);
  EXPECT_EQ(Cube::parse("1-").distance(Cube::parse("01")), 1u);
  EXPECT_EQ(Cube::parse("1-").distance(Cube::parse("11")), 0u);
}

TEST(Cover, TautologyFullCube) {
  EXPECT_TRUE(Cover::parse(3, "---").is_tautology());
}

TEST(Cover, TautologySplit) {
  // x + x' covers everything.
  EXPECT_TRUE(Cover::parse(2, "1- 0-").is_tautology());
  EXPECT_FALSE(Cover::parse(2, "1- 01").is_tautology());
}

TEST(Cover, NotTautology) {
  EXPECT_FALSE(Cover::parse(2, "1- -1").is_tautology());
  EXPECT_TRUE(Cover::parse(2, "1- -1 00").is_tautology());
}

TEST(Cover, CoversCube) {
  const Cover f = Cover::parse(3, "1-- -1-");
  EXPECT_TRUE(f.covers_cube(Cube::parse("11-")));
  EXPECT_TRUE(f.covers_cube(Cube::parse("1-0")));
  EXPECT_FALSE(f.covers_cube(Cube::parse("--1")));
  EXPECT_FALSE(f.covers_cube(Cube::parse("0-1")));
  EXPECT_TRUE(f.covers_cube(Cube::parse("01-")));
}

TEST(Cover, ComplementAgainstEnumeration) {
  const Cover f = Cover::parse(4, "1--- -11- --01");
  const Cover g = f.complement();
  const std::size_t total = 16;
  for (std::size_t m = 0; m < total; ++m) {
    std::vector<bool> bits(4);
    for (std::size_t v = 0; v < 4; ++v) bits[v] = (m >> v) & 1u;
    EXPECT_NE(f.covers_minterm(bits), g.covers_minterm(bits))
        << "minterm " << m;
  }
}

TEST(Cover, ComplementOfEmptyIsTautology) {
  const Cover f(3);
  EXPECT_TRUE(f.complement().is_tautology());
}

TEST(Cover, ComplementOfTautologyIsEmpty) {
  EXPECT_TRUE(Cover::parse(3, "---").complement().empty());
}

TEST(Cover, SingleCubeContainmentRemoval) {
  Cover f = Cover::parse(3, "1-- 10- 1--");
  f.remove_single_cube_contained();
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].to_string(), "1--");
}

TEST(Primes, Consensus) {
  const auto c = consensus(Cube::parse("1-1"), Cube::parse("0-1"));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->to_string(), "--1");
  EXPECT_FALSE(consensus(Cube::parse("10"), Cube::parse("01")).has_value());
  EXPECT_FALSE(consensus(Cube::parse("1-"), Cube::parse("11")).has_value());
}

TEST(Primes, XorFunctionPrimes) {
  // f = a'b + ab' : both cubes are prime, no consensus merge.
  const auto primes = all_primes(Cover::parse(2, "01 10"), Cover(2));
  EXPECT_EQ(primes.size(), 2u);
}

TEST(Primes, MergeAdjacent) {
  // f = ab + ab' = a.
  const auto primes = all_primes(Cover::parse(2, "11 10"), Cover(2));
  ASSERT_EQ(primes.size(), 1u);
  EXPECT_EQ(primes[0].to_string(), "1-");
}

TEST(Primes, WithDontCares) {
  // ON = {11}, DC = {10}: prime should expand to "1-".
  const auto primes = all_primes(Cover::parse(2, "11"), Cover::parse(2, "10"));
  ASSERT_EQ(primes.size(), 1u);
  EXPECT_EQ(primes[0].to_string(), "1-");
}

TEST(Primes, ClassicThreeVar) {
  // f = a'b' + bc + ab  (primes: a'b', bc, ab, and consensus ac? check)
  const auto primes =
      all_primes(Cover::parse(3, "00- -11 11-"), Cover(3));
  // Known primes of a'b' + bc + ab: a'b', bc, ab, ac.
  EXPECT_EQ(primes.size(), 4u);
}

TEST(Ucp, Essential) {
  UcpProblem p;
  p.column_cost = {1, 1, 1};
  p.covers = {{0}, {0, 1}, {2}};
  const auto sol = solve_ucp(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.columns, (std::vector<std::size_t>{0, 2}));
}

TEST(Ucp, PrefersCheaper) {
  UcpProblem p;
  p.column_cost = {10, 1, 1};
  p.covers = {{0, 1}, {0, 2}};
  const auto sol = solve_ucp(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_DOUBLE_EQ(sol.cost, 2.0);
  EXPECT_EQ(sol.columns, (std::vector<std::size_t>{1, 2}));
}

TEST(Ucp, Infeasible) {
  UcpProblem p;
  p.column_cost = {1};
  p.covers = {{0}, {}};
  const auto sol = solve_ucp(p);
  EXPECT_FALSE(sol.feasible);
}

TEST(Ucp, CyclicCore) {
  // Classic cyclic covering: rows {0,1},{1,2},{2,0}; optimal = 2 columns.
  UcpProblem p;
  p.column_cost = {1, 1, 1};
  p.covers = {{0, 1}, {1, 2}, {2, 0}};
  const auto sol = solve_ucp(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.columns.size(), 2u);
}

TEST(Ucp, EmptyProblemIsFeasible) {
  UcpProblem p;
  const auto sol = solve_ucp(p);
  EXPECT_TRUE(sol.feasible);
  EXPECT_TRUE(sol.columns.empty());
}

}  // namespace
}  // namespace bb::logic
