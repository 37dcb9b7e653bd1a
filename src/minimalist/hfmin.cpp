#include "src/minimalist/hfmin.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
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

/// The OFF cubes and privileges that can block the expansion of a seed
/// with one pin set (see SeedExpander): those that meet the pin cube.
/// One that misses it conflicts with the seed on a pinned variable, so it
/// can neither meet the seed nor be the row a raise breaks, and both the
/// DHF check and the expansion skip it.
struct PinGroup {
  std::vector<const Cube*> off;
  std::vector<const Privilege*> privileges;
};

/// is_dhf_implicant restricted to the rows of `cube`'s pin group.
bool dhf_within(const Cube& cube, const PinGroup& group) {
  for (const Cube* off : group.off) {
    if (cube.intersects(*off)) return false;
  }
  for (const Privilege* p : group.privileges) {
    if (cube.intersects(p->transition) &&
        !cube.agrees_with_fixed(p->anchor)) {
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
/// be the row a raise breaks.  Such rows are left out of the matrix (the
/// seed's PinGroup); the expansions and their results are exactly those
/// of the full matrix.
///
/// A fixed, unpinned variable of the seed is *free* when no matrix row
/// conflicts with the seed on it, and *contested* otherwise.  Raising a
/// free variable reads and changes no conflict count, so it is legal in
/// every order and moves no other raise: every expansion starts from the
/// seed with all free variables raised and walks only the contested
/// ones, in the order's relative order.
class SeedExpander {
 public:
  /// Builds the blocking matrix of `seed`, which must be a hazard-free
  /// implicant, from the rows of its pin group.
  void load(const Cube& seed, const PinGroup& group, std::size_t state_base) {
    const std::size_t n = seed.size();
    if (off_cols_.size() < n) {
      off_cols_.resize(n);
      transition_cols_.resize(n);
      anchor_cols_.resize(n);
    }
    for (std::size_t v = 0; v < n; ++v) {
      off_cols_[v].clear();
      transition_cols_[v].clear();
      anchor_cols_[v].clear();
    }

    // Counts: the OFF rows, then the privileges' transitions, then their
    // anchors, in one array so that each expansion resets them in one
    // copy.
    const std::size_t offs = group.off.size();
    const std::size_t privileges = group.privileges.size();
    rows_ = offs + privileges;
    count0_.assign(offs + 2 * privileges, 0);
    for (std::size_t o = 0; o < offs; ++o) {
      const auto row = static_cast<std::uint32_t>(o);
      seed.for_each_conflict(*group.off[o], [&](std::size_t v) {
        off_cols_[v].push_back(row);
        ++count0_[row];
      });
    }
    for (std::size_t p = 0; p < privileges; ++p) {
      const Privilege& privilege = *group.privileges[p];
      const auto transition = static_cast<std::uint32_t>(offs + p);
      const auto anchor = static_cast<std::uint32_t>(offs + privileges + p);
      seed.for_each_conflict(privilege.anchor, [&](std::size_t v) {
        anchor_cols_[v].push_back(anchor);
        ++count0_[anchor];
      });
      seed.for_each_conflict(privilege.transition, [&](std::size_t v) {
        const auto& anchors = anchor_cols_[v];
        const bool anchor_conflict =
            !anchors.empty() && anchors.back() == anchor;
        transition_cols_[v].push_back({transition, anchor, anchor_conflict});
        ++count0_[transition];
      });
    }

    base_ = seed;
    contested_.clear();
    for (std::size_t v = 0; v < n; ++v) {
      if (seed[v] == Lit::kDash) continue;
      if (v >= state_base && seed[v] == Lit::kOne) continue;  // pinned
      if (off_cols_[v].empty() && transition_cols_[v].empty() &&
          anchor_cols_[v].empty()) {
        base_.set(v, Lit::kDash);  // free
      } else {
        contested_.push_back(v);
      }
    }
  }

  /// The OFF and privilege rows of the loaded seed's blocking matrix.
  std::size_t matrix_rows() const { return rows_; }

  /// The loaded seed's contested variables.
  std::size_t contested() const { return contested_.size(); }

  /// The walk of the order `first`, `first` + 1, ..., wrapping around at
  /// the last variable: the index of the first contested variable it
  /// meets.  Orders with the same walk expand to the same cube.
  std::size_t walk_from(std::size_t first) const {
    const auto split =
        std::lower_bound(contested_.begin(), contested_.end(), first);
    return split == contested_.end()
               ? 0
               : static_cast<std::size_t>(split - contested_.begin());
  }

  /// Expands the loaded seed along the walk that starts at contested
  /// variable `walk` (see walk_from) and wraps around.
  Cube expand_walk(std::size_t walk) {
    Cube current = start();
    for (std::size_t i = walk; i < contested_.size(); ++i) {
      raise(current, contested_[i]);
    }
    for (std::size_t i = 0; i < walk; ++i) raise(current, contested_[i]);
    return current;
  }

  /// Expands the loaded seed raising variables from the last to the first.
  Cube expand_reversed() {
    Cube current = start();
    for (auto it = contested_.rbegin(); it != contested_.rend(); ++it) {
      raise(current, *it);
    }
    return current;
  }

 private:
  struct TransitionHit {
    std::uint32_t transition;  ///< count index of the transition
    std::uint32_t anchor;      ///< count index of its anchor
    bool anchor_conflict;  ///< the anchor conflicts on the same variable
  };

  Cube start() {
    count_ = count0_;
    return base_;
  }

  /// Raises contested variable `v` of `current` if that stays legal.
  void raise(Cube& current, std::size_t v) {
    for (const std::uint32_t o : off_cols_[v]) {
      if (count_[o] == 1) return;  // would intersect OFF
    }
    for (const TransitionHit& t : transition_cols_[v]) {
      const std::uint32_t anchor_left =
          count_[t.anchor] - (t.anchor_conflict ? 1 : 0);
      if (count_[t.transition] == 1 && anchor_left > 0) {
        return;  // would reach the transition off its anchor
      }
    }
    current.set(v, Lit::kDash);
    for (const std::uint32_t o : off_cols_[v]) --count_[o];
    for (const TransitionHit& t : transition_cols_[v]) --count_[t.transition];
    for (const std::uint32_t a : anchor_cols_[v]) --count_[a];
  }

  /// Per variable: the matrix rows (kept OFF cubes, privilege transitions
  /// and anchors) the seed conflicts with on that variable.
  std::vector<std::vector<std::uint32_t>> off_cols_;
  std::vector<std::vector<TransitionHit>> transition_cols_;
  std::vector<std::vector<std::uint32_t>> anchor_cols_;
  /// Conflict counts of the seed, and of the cube being expanded: per
  /// OFF row, per privilege transition, then per privilege anchor.
  std::vector<std::uint32_t> count0_, count_;
  std::size_t rows_ = 0;  ///< OFF rows + privileges
  /// The seed with its free variables raised; its contested variables in
  /// ascending order.
  Cube base_;
  std::vector<std::size_t> contested_;
};

/// Every required cube and every anchor point must sit inside a single
/// product of the final cover.
std::vector<Cube> covering_rows(const FuncSpec& spec) {
  std::vector<Cube> rows = spec.on_required;
  rows.insert(rows.end(), spec.on_points.begin(), spec.on_points.end());
  return rows;
}

/// Problem sizes of one expand_rows call, summed over its seeds.
struct ExpandStats {
  std::size_t matrix_rows = 0;
  std::size_t contested = 0;
};

/// dhf_candidates over the precomputed covering `rows` of `spec`; fills
/// `stats` when non-null.
std::vector<Cube> expand_rows(const FuncSpec& spec,
                              const std::vector<Cube>& rows,
                              std::size_t num_vars, std::size_t state_base,
                              util::WorkBudget* budget, ExpandStats* stats) {
  // One pin group per distinct pin set: a cube meets `pins` exactly when
  // it agrees with the seed on every pinned variable.
  std::vector<PinGroup> groups;
  std::vector<std::size_t> group_of;
  group_of.reserve(rows.size());
  std::unordered_map<Cube, std::size_t> group_index;
  for (const Cube& r : rows) {
    Cube pins(r.size());
    for (std::size_t v = state_base; v < r.size(); ++v) {
      if (r[v] == Lit::kOne) pins.set(v, Lit::kOne);
    }
    const auto [it, fresh] = group_index.try_emplace(pins, groups.size());
    if (fresh) {
      PinGroup& g = groups.emplace_back();
      for (const Cube& off : spec.off.cubes()) {
        if (pins.intersects(off)) g.off.push_back(&off);
      }
      for (const Privilege& p : spec.privileges) {
        if (pins.intersects(p.transition)) g.privileges.push_back(&p);
      }
    }
    group_of.push_back(it->second);
  }

  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!dhf_within(rows[i], groups[group_of[i]])) {
      throw std::runtime_error(
          "hfmin: required cube " + rows[i].to_string() + " of '" +
          spec.name + "' is not a hazard-free implicant (no DHF cover exists)");
    }
  }

  std::vector<Cube> candidates;
  std::unordered_set<Cube> seen;
  const auto add_candidate = [&](Cube c) {
    if (seen.insert(c).second) candidates.push_back(std::move(c));
  };

  // Natural, reversed, and a handful of rotated orders; rotation k starts
  // at variable k * num_vars / (rotations + 1).
  const std::size_t rotations = std::min<std::size_t>(6, num_vars);

  // One expander per call: its columns keep their capacity across seeds.
  SeedExpander expander;
  std::vector<std::size_t> walks;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    expander.load(rows[i], groups[group_of[i]], state_base);
    if (stats != nullptr) {
      stats->matrix_rows += expander.matrix_rows();
      stats->contested += expander.contested();
    }
    // Each order is one unit of DHF-candidate work against the budget,
    // except that the natural and reversed orders share one.  An order
    // whose walk an earlier order took yields a candidate already seen,
    // so it is charged but not expanded again; with at most one
    // contested variable the reversed walk is the natural one.
    if (budget != nullptr) budget->charge();
    add_candidate(expander.expand_walk(0));
    if (expander.contested() > 1) add_candidate(expander.expand_reversed());
    walks.assign(1, 0);
    for (std::size_t k = 1; k <= rotations; ++k) {
      if (budget != nullptr) budget->charge();
      const std::size_t walk =
          expander.walk_from((k * num_vars) / (rotations + 1));
      if (std::find(walks.begin(), walks.end(), walk) != walks.end()) {
        continue;
      }
      walks.push_back(walk);
      add_candidate(expander.expand_walk(walk));
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

  ExpandStats stats;
  const std::vector<Cube> candidates =
      expand_rows(spec, rows, num_vars, state_base, budget, &stats);
  static obs::Counter& dhf_counter =
      obs::Registry::global().counter("minimalist.dhf_candidates");
  dhf_counter.add(candidates.size());
  span.arg("vars", static_cast<std::uint64_t>(num_vars));
  span.arg("off", static_cast<std::uint64_t>(spec.off.size()));
  span.arg("privileges", static_cast<std::uint64_t>(spec.privileges.size()));
  span.arg("matrix_rows", static_cast<std::uint64_t>(stats.matrix_rows));
  span.arg("contested", static_cast<std::uint64_t>(stats.contested));
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
