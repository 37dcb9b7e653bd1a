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
///
/// Positive state-bit literals of the seed are pinned (state anchoring):
/// no expansion ever raises them.  An OFF cube, or a privilege's
/// transition, that conflicts with the seed on a pinned variable keeps a
/// conflict count of at least 1 through every expansion, so it can never
/// be the row a raise breaks.  Such rows are left out of the matrix; the
/// expansions and their results are exactly those of the full matrix.
class SeedExpander {
 public:
  SeedExpander(const FuncSpec& spec, std::size_t state_base)
      : spec_(spec), state_base_(state_base) {}

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
    // A cube meets `pins` exactly when it agrees with the seed on every
    // pinned variable.
    Cube pins(seed.size());
    for (std::size_t v = state_base_; v < seed.size(); ++v) {
      if (seed[v] == Lit::kOne) pins.set(v, Lit::kOne);
    }

    off_count0_.clear();
    for (const Cube& off : spec_.off.cubes()) {
      if (!pins.intersects(off)) continue;
      const auto row = static_cast<std::uint32_t>(off_count0_.size());
      off_count0_.push_back(0);
      seed.for_each_conflict(off, [&](std::size_t v) {
        off_cols_[v].push_back(row);
        ++off_count0_[row];
      });
    }
    transition_count0_.clear();
    anchor_count0_.clear();
    for (const Privilege& privilege : spec_.privileges) {
      if (!pins.intersects(privilege.transition)) continue;
      const auto row = static_cast<std::uint32_t>(transition_count0_.size());
      transition_count0_.push_back(0);
      anchor_count0_.push_back(0);
      seed.for_each_conflict(privilege.anchor, [&](std::size_t v) {
        anchor_cols_[v].push_back(row);
        ++anchor_count0_[row];
      });
      seed.for_each_conflict(privilege.transition, [&](std::size_t v) {
        const auto& anchors = anchor_cols_[v];
        const bool anchor_conflict =
            !anchors.empty() && anchors.back() == row;
        transition_cols_[v].push_back({row, anchor_conflict});
        ++transition_count0_[row];
      });
    }
  }

  /// The OFF and privilege rows of the loaded seed's blocking matrix.
  std::size_t matrix_rows() const {
    return off_count0_.size() + transition_count0_.size();
  }

  /// Expands the loaded seed raising variables in the given order.
  Cube expand(const std::vector<std::size_t>& order) {
    off_count_ = off_count0_;
    transition_count_ = transition_count0_;
    anchor_count_ = anchor_count0_;
    const Cube& seed = *seed_;
    Cube current = seed;
    for (const std::size_t v : order) {
      if (current[v] == Lit::kDash) continue;
      if (v >= state_base_ && seed[v] == Lit::kOne) continue;  // pinned
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
  const std::size_t state_base_;
  const Cube* seed_ = nullptr;
  /// Per variable: the matrix rows (kept OFF cubes, privilege transitions
  /// and anchors) the seed conflicts with on that variable.
  std::vector<std::vector<std::uint32_t>> off_cols_;
  std::vector<std::vector<TransitionHit>> transition_cols_;
  std::vector<std::vector<std::uint32_t>> anchor_cols_;
  /// Conflict counts of the seed, and of the cube being expanded, per
  /// matrix row.
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

/// dhf_candidates over the precomputed covering `rows` of `spec`; adds the
/// blocking-matrix rows of every seed to `matrix_rows` when non-null.
std::vector<Cube> expand_rows(const FuncSpec& spec,
                              const std::vector<Cube>& rows,
                              std::size_t num_vars, std::size_t state_base,
                              util::WorkBudget* budget,
                              std::size_t* matrix_rows) {
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

  // Natural, reversed, and a handful of rotated orders.
  std::vector<std::vector<std::size_t>> orders(1);
  for (std::size_t v = 0; v < num_vars; ++v) orders[0].push_back(v);
  orders.emplace_back(orders[0].rbegin(), orders[0].rend());
  const std::size_t rotations = std::min<std::size_t>(6, num_vars);
  for (std::size_t k = 1; k <= rotations; ++k) {
    std::vector<std::size_t> rot = orders[0];
    std::rotate(rot.begin(), rot.begin() + (k * num_vars) / (rotations + 1),
                rot.end());
    orders.push_back(std::move(rot));
  }

  SeedExpander expander(spec, state_base);
  for (const Cube& r : rows) {
    expander.load(r);
    if (matrix_rows != nullptr) *matrix_rows += expander.matrix_rows();
    // Each expansion is one unit of DHF-candidate work against the
    // budget, except that the natural and reversed orders share one.
    for (std::size_t k = 0; k < orders.size(); ++k) {
      if (budget != nullptr && k != 1) budget->charge();
      add_candidate(expander.expand(orders[k]));
    }
  }
  return candidates;
}

}  // namespace

bool is_dhf_implicant(const Cube& cube, const FuncSpec& spec) {
  return disjoint_from_off(cube, spec.off) &&
         anchors_ok(cube, spec.privileges);
}

std::vector<Cube> dhf_candidates(const FuncSpec& spec, std::size_t num_vars,
                                 std::size_t state_base,
                                 util::WorkBudget* budget) {
  return expand_rows(spec, covering_rows(spec), num_vars, state_base, budget,
                     nullptr);
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

  std::size_t matrix_rows = 0;
  const std::vector<Cube> candidates = expand_rows(
      spec, rows, num_vars, state_base, budget, &matrix_rows);
  obs::Registry::global()
      .counter("minimalist.dhf_candidates")
      .add(candidates.size());
  span.arg("vars", static_cast<std::uint64_t>(num_vars));
  span.arg("off", static_cast<std::uint64_t>(spec.off.size()));
  span.arg("privileges", static_cast<std::uint64_t>(spec.privileges.size()));
  span.arg("matrix_rows", static_cast<std::uint64_t>(matrix_rows));
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
