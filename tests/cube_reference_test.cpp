// Differential property test of the packed logic::Cube against the
// byte-per-literal reference (tests/reference_cube.hpp): every operation,
// on seeded random cubes over 1..130 variables, so the word boundaries at
// 31/32/33, 63/64/65 and 95/96/97 are all crossed.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/logic/cube.hpp"
#include "tests/reference_cube.hpp"

namespace bb::logic {
namespace {

using reference::ByteCube;

constexpr std::size_t kMaxVars = 130;
constexpr int kPairsPerSize = 60;

/// A random cube whose literals are DASH with probability `dash`.
Cube random_cube(std::mt19937& rng, std::size_t n, double dash) {
  std::bernoulli_distribution is_dash(dash);
  std::bernoulli_distribution bit(0.5);
  Cube c(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (!is_dash(rng)) c.set(v, bit(rng) ? Lit::kOne : Lit::kZero);
  }
  return c;
}

/// `c` with each literal redrawn with probability `p` (so pairs are often
/// close: intersecting, contained or equal, not just random).
Cube perturb(std::mt19937& rng, const Cube& c, double p) {
  std::bernoulli_distribution redraw(p);
  std::uniform_int_distribution<int> lit(0, 2);
  Cube out = c;
  for (std::size_t v = 0; v < c.size(); ++v) {
    if (redraw(rng)) out.set(v, static_cast<Lit>(lit(rng)));
  }
  return out;
}

std::vector<bool> random_minterm(std::mt19937& rng, std::size_t n) {
  std::bernoulli_distribution bit(0.5);
  std::vector<bool> bits(n);
  for (std::size_t v = 0; v < n; ++v) bits[v] = bit(rng);
  return bits;
}

/// A minterm inside `c`: its fixed literals, random elsewhere.
std::vector<bool> minterm_inside(std::mt19937& rng, const Cube& c) {
  std::vector<bool> bits = random_minterm(rng, c.size());
  for (std::size_t v = 0; v < c.size(); ++v) {
    if (c[v] != Lit::kDash) bits[v] = c[v] == Lit::kOne;
  }
  return bits;
}

std::vector<std::size_t> conflicts(const Cube& a, const Cube& b) {
  std::vector<std::size_t> out;
  a.for_each_conflict(b, [&](std::size_t v) { out.push_back(v); });
  return out;
}

std::vector<std::size_t> conflicts(const ByteCube& a, const ByteCube& b) {
  std::vector<std::size_t> out;
  for (std::size_t v = 0; v < std::min(a.size(), b.size()); ++v) {
    if (a[v] != Lit::kDash && b[v] != Lit::kDash && a[v] != b[v]) {
      out.push_back(v);
    }
  }
  return out;
}

/// Every binary operation of the pair (a, b) against the reference.
void check_pair(const Cube& a, const Cube& b) {
  const ByteCube ra = ByteCube::of(a);
  const ByteCube rb = ByteCube::of(b);
  SCOPED_TRACE(a.to_string() + " / " + b.to_string());
  EXPECT_EQ(a == b, ra == rb);
  if (a == b) {
    EXPECT_EQ(a.hash(), b.hash());
  }
  EXPECT_EQ(a.contains(b), ra.contains(rb));
  EXPECT_EQ(b.contains(a), rb.contains(ra));
  EXPECT_EQ(a.agrees_with_fixed(b), ra.agrees_with_fixed(rb));
  EXPECT_EQ(b.agrees_with_fixed(a), rb.agrees_with_fixed(ra));
  EXPECT_EQ(a.intersects(b), ra.intersects(rb));
  EXPECT_EQ(a.distance(b), ra.distance(rb));
  EXPECT_EQ(b.distance(a), rb.distance(ra));
  EXPECT_EQ(conflicts(a, b), conflicts(ra, rb));
  const auto inter = a.intersect(b);
  const auto rinter = ra.intersect(rb);
  ASSERT_EQ(inter.has_value(), rinter.has_value());
  if (inter) {
    EXPECT_EQ(ByteCube::of(*inter), *rinter);
    EXPECT_EQ(*inter, Cube::parse(rinter->to_string()));
  }
  if (a.size() == b.size()) {
    const Cube super = a.supercube(b);
    EXPECT_EQ(ByteCube::of(super), ra.supercube(rb));
    EXPECT_EQ(super, Cube::parse(ra.supercube(rb).to_string()));
  } else {
    EXPECT_THROW((void)a.supercube(b), std::invalid_argument);
  }
}

/// Every unary operation of `c` against the reference.
void check_single(std::mt19937& rng, const Cube& c) {
  const ByteCube rc = ByteCube::of(c);
  SCOPED_TRACE(c.to_string());
  EXPECT_EQ(c.size(), rc.size());
  EXPECT_EQ(c.to_string(), rc.to_string());
  EXPECT_EQ(c.num_literals(), rc.num_literals());
  const Cube parsed = Cube::parse(rc.to_string());
  EXPECT_EQ(parsed, c);
  EXPECT_EQ(parsed.hash(), c.hash());
  for (int k = 0; k < 3; ++k) {
    const std::size_t v =
        std::uniform_int_distribution<std::size_t>(0, c.size() - 1)(rng);
    EXPECT_EQ(ByteCube::of(c.raised(v)), rc.raised(v));
    EXPECT_EQ(c.raised(v), Cube::parse(rc.raised(v).to_string()));
  }
  const std::vector<bool> outside = random_minterm(rng, c.size());
  EXPECT_EQ(c.contains_minterm(outside), rc.contains_minterm(outside));
  const std::vector<bool> inside = minterm_inside(rng, c);
  EXPECT_TRUE(c.contains_minterm(inside));
  EXPECT_EQ(Cube::from_minterm(inside), Cube::parse(
                ByteCube::from_minterm(inside).to_string()));
  EXPECT_TRUE(c.contains(Cube::from_minterm(inside)));
  EXPECT_FALSE(c.contains_minterm(std::vector<bool>(c.size() + 1)));
}

TEST(CubeReference, EveryOperationMatchesByteCubeOnRandomCubes) {
  std::mt19937 rng(20020304);
  for (std::size_t n = 1; n <= kMaxVars; ++n) {
    SCOPED_TRACE("vars=" + std::to_string(n));
    for (int i = 0; i < kPairsPerSize; ++i) {
      const double dash = (i % 4) * 0.3;  // 0, 0.3, 0.6, 0.9
      const Cube a = random_cube(rng, n, dash);
      const Cube b = i % 2 == 0 ? perturb(rng, a, 0.05 + 0.1 * (i % 3))
                                : random_cube(rng, n, dash);
      check_single(rng, a);
      check_pair(a, b);
      check_pair(a, a);
    }
  }
}

TEST(CubeReference, MixedSizesMatchTheReference) {
  // Sizes across a word boundary from each other: the shorter cube's DASH
  // tail must read as "no constraint" for the distance-based predicates.
  std::mt19937 rng(7);
  for (const std::size_t n : {1u, 31u, 32u, 33u, 63u, 64u, 65u, 100u}) {
    for (const std::size_t m : {n - (n > 1 ? 1 : 0), n + 1, n + 33}) {
      for (int i = 0; i < 20; ++i) {
        const Cube a = random_cube(rng, n, 0.4);
        Cube b = random_cube(rng, m, 0.4);
        // Make the shared prefix often compatible.
        for (std::size_t v = 0; v < std::min(n, m); ++v) {
          if (i % 2 == 0 && a[v] != Lit::kDash) b.set(v, a[v]);
        }
        check_pair(a, b);
        check_pair(b, a);
      }
    }
  }
}

TEST(CubeReference, SetKeepsTheRepresentationCanonical) {
  // Overwriting literals in any order must land on the same value as
  // building the cube directly, or operator== and hash would diverge.
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> lit(0, 2);
  for (const std::size_t n : {5u, 32u, 33u, 64u, 65u, 130u}) {
    const Cube target = random_cube(rng, n, 0.5);
    Cube c = random_cube(rng, n, 0.2);
    for (int k = 0; k < 200; ++k) {
      c.set(std::uniform_int_distribution<std::size_t>(0, n - 1)(rng),
            static_cast<Lit>(lit(rng)));
    }
    for (std::size_t v = 0; v < n; ++v) c.set(v, target[v]);
    EXPECT_EQ(c, target);
    EXPECT_EQ(c.hash(), target.hash());
    EXPECT_EQ(c.to_string(), target.to_string());
  }
  EXPECT_EQ(Cube(0), Cube());
  EXPECT_NE(Cube(3), Cube(4));
  EXPECT_EQ(Cube(70).num_literals(), 0u);
  EXPECT_EQ(Cube(70), Cube::parse(std::string(70, '-')));
  EXPECT_THROW(Cube::parse("01x"), std::invalid_argument);
}

}  // namespace
}  // namespace bb::logic
