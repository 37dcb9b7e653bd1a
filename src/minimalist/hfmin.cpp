#include "src/minimalist/hfmin.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "src/logic/ucp.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace bb::minimalist {

namespace {

using logic::Cube;
using logic::Lit;

bool disjoint_from_off(const Cube& cube, const logic::Cover& off) {
  for (const Cube& c : off.cubes()) {
    if (cube.intersects(c)) return false;
  }
  return true;
}

bool anchors_ok(const Cube& cube, const std::vector<Privilege>& privileges) {
  for (const Privilege& p : privileges) {
    if (cube.intersects(p.transition) &&
        !cube.agrees_with_fixed(p.anchor)) {
      return false;
    }
  }
  return true;
}

/// Greedy expansion of one seed row against a blocking matrix (Espresso's
/// expand, Brayton et al. 1984).  A cube grown from the seed by raising
/// variables conflicts with an OFF cube, a privilege's transition or its
/// anchor exactly on the seed's conflicting variables not raised yet, so
/// per-row conflict counts decide legality without rescanning OFF.  Every
/// cube the expansion visits is legal, so raising `v` can only break the
/// rows that conflict on `v`: an OFF row whose last conflict is `v`, or a
/// privilege whose transition's last conflict is `v` while its anchor
/// still conflicts after the raise.
class SeedExpander {
 public:
  explicit SeedExpander(const FuncSpec& spec) : spec_(spec) {}

  /// Builds the blocking matrix of `seed`, which must be a hazard-free
  /// implicant.
  void load(const Cube& seed) {
    seed_ = &seed;
    off_cols_.resize(seed.size());
    transition_cols_.resize(seed.size());
    anchor_cols_.resize(seed.size());
    for (std::size_t v = 0; v < seed.size(); ++v) {
      off_cols_[v].clear();
      transition_cols_[v].clear();
      anchor_cols_[v].clear();
    }

    const auto& off = spec_.off.cubes();
    off_count0_.assign(off.size(), 0);
    for (std::uint32_t o = 0; o < off.size(); ++o) {
      seed.for_each_conflict(off[o], [&](std::size_t v) {
        off_cols_[v].push_back(o);
        ++off_count0_[o];
      });
    }
    const auto& privileges = spec_.privileges;
    transition_count0_.assign(privileges.size(), 0);
    anchor_count0_.assign(privileges.size(), 0);
    for (std::uint32_t p = 0; p < privileges.size(); ++p) {
      seed.for_each_conflict(privileges[p].anchor, [&](std::size_t v) {
        anchor_cols_[v].push_back(p);
        ++anchor_count0_[p];
      });
      seed.for_each_conflict(privileges[p].transition, [&](std::size_t v) {
        const auto& anchors = anchor_cols_[v];
        const bool anchor_conflict =
            !anchors.empty() && anchors.back() == p;
        transition_cols_[v].push_back({p, anchor_conflict});
        ++transition_count0_[p];
      });
    }
  }

  /// Expands the loaded seed raising variables in the given order.
  /// Positive state-bit literals of the seed are pinned (state anchoring).
  Cube expand(const std::vector<std::size_t>& order, std::size_t state_base) {
    off_count_ = off_count0_;
    transition_count_ = transition_count0_;
    anchor_count_ = anchor_count0_;
    const Cube& seed = *seed_;
    Cube current = seed;
    for (const std::size_t v : order) {
      if (current[v] == Lit::kDash) continue;
      if (v >= state_base && seed[v] == Lit::kOne) continue;  // anchored
      if (!can_raise(v)) continue;
      current.set(v, Lit::kDash);
      for (const std::uint32_t o : off_cols_[v]) --off_count_[o];
      for (const TransitionHit& t : transition_cols_[v]) {
        --transition_count_[t.privilege];
      }
      for (const std::uint32_t p : anchor_cols_[v]) --anchor_count_[p];
    }
    return current;
  }

 private:
  struct TransitionHit {
    std::uint32_t privilege;
    bool anchor_conflict;  ///< the anchor conflicts on the same variable
  };

  bool can_raise(std::size_t v) const {
    for (const std::uint32_t o : off_cols_[v]) {
      if (off_count_[o] == 1) return false;  // would intersect OFF
    }
    for (const TransitionHit& t : transition_cols_[v]) {
      const std::uint32_t anchor_left =
          anchor_count_[t.privilege] - (t.anchor_conflict ? 1 : 0);
      if (transition_count_[t.privilege] == 1 && anchor_left > 0) {
        return false;  // would reach the transition off its anchor
      }
    }
    return true;
  }

  const FuncSpec& spec_;
  const Cube* seed_ = nullptr;
  /// Per variable: the OFF cubes, privilege transitions and anchors the
  /// seed conflicts with on that variable.
  std::vector<std::vector<std::uint32_t>> off_cols_;
  std::vector<std::vector<TransitionHit>> transition_cols_;
  std::vector<std::vector<std::uint32_t>> anchor_cols_;
  /// Conflict counts of the seed, and of the cube being expanded.
  std::vector<std::uint32_t> off_count0_, transition_count0_, anchor_count0_;
  std::vector<std::uint32_t> off_count_, transition_count_, anchor_count_;
};

/// Every required cube and every anchor point must sit inside a single
/// product of the final cover.
std::vector<Cube> covering_rows(const FuncSpec& spec) {
  std::vector<Cube> rows = spec.on_required;
  rows.insert(rows.end(), spec.on_points.begin(), spec.on_points.end());
  return rows;
}

}  // namespace

bool is_dhf_implicant(const Cube& cube, const FuncSpec& spec) {
  return disjoint_from_off(cube, spec.off) &&
         anchors_ok(cube, spec.privileges);
}

std::vector<Cube> dhf_candidates(const FuncSpec& spec, std::size_t num_vars,
                                 std::size_t state_base,
                                 util::WorkBudget* budget) {
  const std::vector<Cube> rows = covering_rows(spec);
  for (const Cube& r : rows) {
    if (!is_dhf_implicant(r, spec)) {
      throw std::runtime_error(
          "hfmin: required cube " + r.to_string() + " of '" + spec.name +
          "' is not a hazard-free implicant (no DHF cover exists)");
    }
  }

  std::vector<Cube> candidates;
  std::unordered_set<Cube> seen;
  const auto add_candidate = [&](Cube c) {
    if (seen.insert(c).second) candidates.push_back(std::move(c));
  };

  std::vector<std::size_t> order(num_vars);
  for (std::size_t v = 0; v < num_vars; ++v) order[v] = v;

  SeedExpander expander(spec);
  for (const Cube& r : rows) {
    expander.load(r);
    // Natural, reversed, and a handful of rotated orders.  Each expansion
    // is one unit of DHF-candidate work against the budget.
    if (budget != nullptr) budget->charge();
    add_candidate(expander.expand(order, state_base));
    std::vector<std::size_t> rev(order.rbegin(), order.rend());
    add_candidate(expander.expand(rev, state_base));
    const std::size_t rotations = std::min<std::size_t>(6, num_vars);
    for (std::size_t k = 1; k <= rotations; ++k) {
      if (budget != nullptr) budget->charge();
      std::vector<std::size_t> rot = order;
      std::rotate(rot.begin(), rot.begin() + (k * num_vars) / (rotations + 1),
                  rot.end());
      add_candidate(expander.expand(rot, state_base));
    }
  }
  return candidates;
}

SolvedFunction minimize_function(const FuncSpec& spec, std::size_t num_vars,
                                 std::size_t state_base, SynthMode mode,
                                 util::WorkBudget* budget) {
  obs::Span span("minimalist.hfmin", obs::kCatSynth);
  span.arg("function", spec.name);
  const std::vector<Cube> rows = covering_rows(spec);

  SolvedFunction out;
  out.name = spec.name;
  out.is_state_bit = spec.is_state_bit;
  out.products = logic::Cover(num_vars);
  if (rows.empty()) return out;  // constant-0 function

  const std::vector<Cube> candidates =
      dhf_candidates(spec, num_vars, state_base, budget);
  obs::Registry::global()
      .counter("minimalist.dhf_candidates")
      .add(candidates.size());
  span.arg("vars", static_cast<std::uint64_t>(num_vars));
  span.arg("off", static_cast<std::uint64_t>(spec.off.size()));
  span.arg("privileges", static_cast<std::uint64_t>(spec.privileges.size()));
  span.arg("rows", static_cast<std::uint64_t>(rows.size()));
  span.arg("candidates", static_cast<std::uint64_t>(candidates.size()));

  // Covering problem: candidate c covers row r iff c contains r.
  logic::UcpProblem problem;
  problem.column_cost.reserve(candidates.size());
  for (const Cube& c : candidates) {
    problem.column_cost.push_back(
        mode == SynthMode::kSpeed
            ? 1.0
            : static_cast<double>(c.num_literals()) + 1.0);
  }
  problem.covers.resize(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (candidates[c].contains(rows[r])) problem.covers[r].push_back(c);
    }
    if (problem.covers[r].empty()) {
      throw std::runtime_error("hfmin: row " + rows[r].to_string() + " of '" +
                               spec.name + "' has no covering candidate");
    }
  }

  const logic::UcpSolution solution = logic::solve_ucp(problem, budget);
  if (!solution.feasible) {
    throw std::runtime_error("hfmin: covering infeasible for '" + spec.name +
                             "'");
  }
  for (const std::size_t c : solution.columns) {
    out.products.add(candidates[c]);
  }
  return out;
}

}  // namespace bb::minimalist
