// Reference form of flow-table extraction for differential tests: the
// name-keyed extractor that minimalist::extract replaced with an
// interned-signal one.  It copies std::map valuations and std::set early
// sets per arc and looks every function up by name, which makes it slow
// and easy to audit.  Tests assert that the production extractor gives
// cube-for-cube the same MachineSpec on every machine they check.
#pragma once

#include <deque>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/bm/spec.hpp"
#include "src/bm/validate.hpp"
#include "src/minimalist/funcspec.hpp"

namespace bb::minimalist::reference {

namespace detail {

using logic::Cube;
using logic::Lit;

/// Signal valuations per state, computed by BFS from the initial state.
struct StateValuations {
  std::vector<std::map<std::string, bool>> at_state;
};

inline StateValuations compute_valuations(const bm::Spec& spec) {
  StateValuations vals;
  vals.at_state.resize(spec.num_states);

  std::map<std::string, bool> initial;
  for (const auto& entry : spec.is_input) initial[entry.first] = false;

  std::vector<bool> seen(spec.num_states, false);
  const bm::OutArcs out_arcs(spec);
  vals.at_state[spec.initial_state] = initial;
  seen[spec.initial_state] = true;
  std::deque<int> queue{spec.initial_state};
  while (!queue.empty()) {
    const int s = queue.front();
    queue.pop_front();
    for (const bm::Arc* arc : out_arcs.from(s)) {
      std::map<std::string, bool> v = vals.at_state[s];
      for (const ch::Transition& t : arc->in_burst.transitions) {
        v[t.signal] = t.rising;
      }
      for (const ch::Transition& t : arc->out_burst.transitions) {
        v[t.signal] = t.rising;
      }
      if (!seen[arc->to]) {
        seen[arc->to] = true;
        vals.at_state[arc->to] = std::move(v);
        queue.push_back(arc->to);
      } else if (vals.at_state[arc->to] != v) {
        throw std::runtime_error(
            "minimalist: state " + std::to_string(arc->to) +
            " entered with inconsistent wire valuations");
      }
    }
  }
  return vals;
}

/// Builds cubes over the (inputs, state bits) variable space.
class CubeFactory {
 public:
  CubeFactory(std::vector<std::string> inputs, int num_states)
      : inputs_(std::move(inputs)), num_states_(num_states) {
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      input_index_[inputs_[i]] = i;
    }
  }

  std::size_t num_vars() const { return inputs_.size() + num_states_; }
  std::size_t state_var(int state) const { return inputs_.size() + state; }

  /// Input part from a valuation; state part one-hot `s`.
  Cube at(const std::map<std::string, bool>& x, int s) const {
    Cube c(num_vars());
    for (const auto& [name, value] : x) {
      const auto it = input_index_.find(name);
      if (it != input_index_.end()) {
        c.set(it->second, value ? Lit::kOne : Lit::kZero);
      }
    }
    for (int t = 0; t < num_states_; ++t) {
      c.set(state_var(t), t == s ? Lit::kOne : Lit::kZero);
    }
    return c;
  }

  /// Dashes the input variables that change in `burst`.
  Cube dash_burst(Cube c, const bm::Burst& burst) const {
    for (const ch::Transition& t : burst.transitions) {
      const auto it = input_index_.find(t.signal);
      if (it != input_index_.end()) c.set(it->second, Lit::kDash);
    }
    return c;
  }

  /// Dashes the named input variables.
  Cube dash_inputs(Cube c, const std::set<std::string>& names) const {
    for (const std::string& name : names) {
      const auto it = input_index_.find(name);
      if (it != input_index_.end()) c.set(it->second, Lit::kDash);
    }
    return c;
  }

  /// Sets one named input variable to a concrete value.
  Cube set_input(Cube c, const std::string& name, bool value) const {
    const auto it = input_index_.find(name);
    if (it != input_index_.end()) {
      c.set(it->second, value ? Lit::kOne : Lit::kZero);
    }
    return c;
  }

  /// Dashes the state bit of `state`.
  Cube dash_state(Cube c, int state) const {
    c.set(state_var(state), Lit::kDash);
    return c;
  }

  /// Sets the state bit of `state` to 1.
  Cube set_state(Cube c, int state, bool value) const {
    c.set(state_var(state), value ? Lit::kOne : Lit::kZero);
    return c;
  }

 private:
  std::vector<std::string> inputs_;
  std::map<std::string, std::size_t> input_index_;
  int num_states_;
};

}  // namespace detail

inline MachineSpec extract(const bm::Spec& spec) {
  using namespace detail;
  MachineSpec machine;
  machine.name = spec.name;
  machine.inputs = spec.input_names();
  const std::vector<std::string> outputs = spec.output_names();
  for (int s = 0; s < spec.num_states; ++s) {
    machine.state_bits.push_back("y" + std::to_string(s));
  }

  const CubeFactory cubes(machine.inputs, spec.num_states);
  machine.num_vars = cubes.num_vars();

  machine.state_codes.assign(
      spec.num_states, std::vector<bool>(machine.state_bits.size(), false));
  for (int s = 0; s < spec.num_states; ++s) machine.state_codes[s][s] = true;
  machine.initial_state_code = machine.state_codes[spec.initial_state];
  machine.initial_outputs.assign(outputs.size(), false);

  // Function table: outputs first, then state bits.
  std::map<std::string, std::size_t> func_index;
  for (const std::string& z : outputs) {
    FuncSpec f;
    f.name = z;
    f.off = logic::Cover(machine.num_vars);
    func_index[z] = machine.functions.size();
    machine.functions.push_back(std::move(f));
  }
  const std::size_t state_func_base = machine.functions.size();
  for (int s = 0; s < spec.num_states; ++s) {
    FuncSpec f;
    f.name = machine.state_bits[s];
    f.is_state_bit = true;
    f.off = logic::Cover(machine.num_vars);
    machine.functions.push_back(std::move(f));
  }

  const StateValuations vals = compute_valuations(spec);

  // Input edges that may arrive early per state (pending edges that are
  // stuck or carried over from a predecessor — see bm::early_edges).
  // Pinning such an input to the state's entry valuation would leave the
  // circuit uncovered — hence free to glitch — the moment the edge
  // arrives early, so every cube anchored at the state treats the signal
  // as a don't-care instead (the extended-burst-mode "directed
  // don't-care" treatment), and arcs that consume an early edge pin
  // their dynamic transitions to the remaining compulsory triggers.
  // Only machines within the one-burst-earliness class get this
  // treatment: an edge that can linger across two states cannot be
  // absorbed this way (see bm::adjacency_violations), and such machines
  // keep the classic strict-fundamental-mode cubes.
  std::vector<std::set<std::pair<std::string, bool>>> early_edges(
      spec.num_states);
  std::vector<std::set<std::string>> early(spec.num_states);
  if (bm::adjacency_violations(spec).empty()) {
    early_edges = bm::early_edges(spec);
    for (int s = 0; s < spec.num_states; ++s) {
      for (const auto& e : early_edges[s]) early[s].insert(e.first);
    }
  }

  // Predecessors per state: while the machine hands off p -> s, bit p is
  // still high when s's next input burst may already arrive (the peer can
  // answer faster than the feedback settles).  Transition cubes therefore
  // leave predecessor bits unconstrained instead of requiring them low.
  std::vector<std::vector<int>> preds(spec.num_states);
  for (const bm::Arc& arc : spec.arcs) {
    if (arc.from != arc.to) preds[arc.to].push_back(arc.from);
  }
  const auto dash_preds = [&](Cube c, int state) {
    for (const int p : preds[state]) {
      if (p != state) c = cubes.dash_state(c, p);
    }
    return c;
  };

  const auto add_on = [&](std::size_t fi, Cube c, bool required) {
    if (required) {
      machine.functions[fi].on_required.push_back(std::move(c));
    } else {
      machine.functions[fi].on_points.push_back(std::move(c));
    }
  };
  const auto add_off = [&](std::size_t fi, Cube c) {
    machine.functions[fi].off.add(std::move(c));
  };
  const std::size_t num_inputs = machine.inputs.size();
  // Privilege anchors constrain only input variables.
  const auto inputs_only = [&](Cube c) {
    for (std::size_t v = num_inputs; v < machine.num_vars; ++v) {
      c.set(v, logic::Lit::kDash);
    }
    return c;
  };
  const auto add_priv = [&](std::size_t fi, Cube t, const Cube& a) {
    machine.functions[fi].privileges.push_back(
        Privilege{std::move(t), inputs_only(a)});
  };

  std::vector<bool> has_arc(spec.num_states, false);

  for (const bm::Arc& arc : spec.arcs) {
    const int s = arc.from;
    const int s2 = arc.to;
    has_arc[s] = true;
    const auto& val_s = vals.at_state[s];

    auto val_mid = val_s;  // after the input burst
    for (const ch::Transition& t : arc.in_burst.transitions) {
      val_mid[t.signal] = t.rising;
    }
    auto val_e = val_mid;  // after the output burst
    for (const ch::Transition& t : arc.out_burst.transitions) {
      val_e[t.signal] = t.rising;
    }

    // Early signals that survive the burst: a surviving early signal can
    // flip during the output burst and the handoff just as freely as
    // while the machine sat in s, so every post-burst cube of this arc
    // dashes it too.
    std::set<std::string> early_after = early[s];
    for (const ch::Transition& t : arc.in_burst.transitions) {
      early_after.erase(t.signal);
    }

    // Trigger/transition cubes tolerate a stale predecessor bit (the
    // p -> s handoff may still be completing when this arc's burst
    // arrives); hold cubes stay strict one-hot pairs so specifications of
    // different arcs cannot claim conflicting values for the same codes.
    // Cubes anchored at s additionally dash the inputs that may arrive a
    // burst early while the machine sits in s.
    const Cube strict_end = cubes.at(val_mid, s);
    const Cube start_point = cubes.dash_inputs(
        dash_preds(cubes.at(val_s, s), s), early[s]);
    const Cube end_point =
        cubes.dash_inputs(dash_preds(strict_end, s), early_after);
    const Cube t_in = cubes.dash_burst(start_point, arc.in_burst);

    // "Burst incomplete" pin cubes for multiple-input bursts, one per
    // member: the region where that member still sits at its pre-burst
    // value, whatever the other burst inputs do.  Classic hazard-free
    // theory leaves the intermediate points of a dynamic transition as
    // don't-cares, which lets the minimizer drop a slow member's literal
    // and fire outputs (or advance the state) as soon as the fast
    // members arrive.  In a flat composition each output edge goes to a
    // *different* peer that answers it individually, so a partial output
    // burst is immediately acted upon — the machine must change nothing
    // until the whole burst has genuinely arrived.  The same pinning
    // keeps functions put when an early-capable member completes ahead
    // of the compulsory triggers.
    // Pins are anchored strictly one-hot (no stale-predecessor dash):
    // a compulsory trigger cannot arrive while a handoff is still
    // settling (one-sided timing assumption), and in a 2-state cycle a
    // pred-dashed pin of one arc would overlap the other arc's
    // post-burst cubes, which describe the opposite output value.
    std::vector<Cube> incomplete;
    if (arc.in_burst.transitions.size() > 1) {
      const Cube strict_t_in = cubes.dash_burst(
          cubes.dash_inputs(cubes.at(val_s, s), early[s]), arc.in_burst);
      for (const ch::Transition& t : arc.in_burst.transitions) {
        incomplete.push_back(
            cubes.set_input(strict_t_in, t.signal, val_s.at(t.signal)));
      }
    }

    // Hold cubes for the two-step one-hot handoff (s raises s', then s
    // falls), both at the post-burst input valuation.  hold1 is still
    // anchored at s (s'=don't-care); hold2 is anchored at s'.  Burst
    // members just transitioned and hold their new values, but early
    // signals that survive the burst stay dashed through the handoff.
    Cube hold1, hold2;
    if (s2 != s) {
      hold1 = cubes.dash_inputs(cubes.dash_state(strict_end, s2),
                                early_after);                     // s=1, s'=-
      hold2 = cubes.dash_inputs(
          cubes.set_state(cubes.dash_state(strict_end, s), s2, true),
          early_after);                                           // s=-, s'=1
    }

    // --- output functions ---
    std::set<std::string> out_changed;
    for (const ch::Transition& t : arc.out_burst.transitions) {
      out_changed.insert(t.signal);
    }
    for (const std::string& z : outputs) {
      const std::size_t fi = func_index.at(z);
      const bool old_v = val_s.at(z);
      const bool new_v = val_e.at(z);
      if (!out_changed.count(z)) {
        // Static through the burst.
        if (old_v) {
          add_on(fi, t_in, /*required=*/true);
        } else {
          add_off(fi, t_in);
        }
      } else if (!old_v && new_v) {
        // Dynamic 0->1: fires when the burst completes; intermediates are
        // don't-care but any intersecting product must contain the end.
        // With early burst members the pre-completion region is reachable
        // out of burst order, so it is pinned OFF explicitly.
        add_on(fi, end_point, /*required=*/false);
        add_off(fi, start_point);
        for (const Cube& c : incomplete) add_off(fi, c);
        add_priv(fi, t_in, end_point);
      } else {
        // Dynamic 1->0: must likewise hold its old value until every
        // early member has arrived, or the handshake it drives completes
        // before the state change latches.
        add_on(fi, start_point, /*required=*/false);
        add_off(fi, end_point);
        for (const Cube& c : incomplete) add_on(fi, c, /*required=*/true);
        add_priv(fi, t_in, start_point);
      }
      if (s2 != s) {
        if (new_v) {
          add_on(fi, hold1, /*required=*/true);
          add_on(fi, hold2, /*required=*/true);
        } else {
          add_off(fi, hold1);
          add_off(fi, hold2);
        }
      }
    }

    // --- state-bit functions ---
    for (int t = 0; t < spec.num_states; ++t) {
      const std::size_t fi = state_func_base + t;
      if (t == s && s2 != s) {
        // Holds through the burst, then falls after s' rises.  The
        // successor bit must stay excluded from the hold even when s' is
        // also a predecessor of s (2-cycles): once s' rises, Y_s falls.
        add_on(fi, cubes.set_state(t_in, s2, false), /*required=*/true);
        add_off(fi, cubes.set_state(end_point, s2, true));
        add_off(fi, hold2);
        add_priv(fi, hold1, end_point);
      } else if (t == s && s2 == s) {
        add_on(fi, t_in, /*required=*/true);
      } else if (t == s2 && s2 != s) {
        // Rises with the output burst, holds through the handoff.  Early
        // burst members make pre-completion points reachable: the bit
        // must not rise while any of them still sits at its old value.
        add_on(fi, end_point, /*required=*/false);
        add_off(fi, start_point);
        for (const Cube& c : incomplete) {
          add_off(fi, cubes.set_state(c, s2, false));
        }
        add_priv(fi, t_in, end_point);
        add_on(fi, hold1, /*required=*/true);
        add_on(fi, hold2, /*required=*/true);
      } else {
        add_off(fi, t_in);
        if (s2 != s) {
          add_off(fi, hold1);
          add_off(fi, hold2);
        }
      }
    }
  }

  // Terminal states (no outgoing arcs) must still hold their code and
  // output values stably.
  for (int s = 0; s < spec.num_states; ++s) {
    if (has_arc[s]) continue;
    const Cube stable =
        cubes.dash_inputs(cubes.at(vals.at_state[s], s), early[s]);
    for (const std::string& z : outputs) {
      const std::size_t fi = func_index.at(z);
      if (vals.at_state[s].at(z)) {
        add_on(fi, stable, /*required=*/true);
      } else {
        add_off(fi, stable);
      }
    }
    for (int t = 0; t < spec.num_states; ++t) {
      const std::size_t fi = state_func_base + t;
      if (t == s) {
        add_on(fi, stable, /*required=*/true);
      } else {
        add_off(fi, stable);
      }
    }
  }

  // Consistency: no ON cube may intersect the OFF cover.
  for (const FuncSpec& f : machine.functions) {
    const auto check = [&](const Cube& c) {
      for (const Cube& off : f.off.cubes()) {
        if (c.intersects(off)) {
          throw std::runtime_error("minimalist: ON/OFF conflict on '" +
                                   f.name + "' between " + c.to_string() +
                                   " and " + off.to_string());
        }
      }
    };
    for (const Cube& c : f.on_required) check(c);
    for (const Cube& c : f.on_points) check(c);
  }

  return machine;
}

}  // namespace bb::minimalist::reference
