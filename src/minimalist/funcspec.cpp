#include "src/minimalist/funcspec.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <span>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "src/bm/validate.hpp"
#include "src/obs/metrics.hpp"

namespace bb::minimalist {

namespace {

using logic::Cube;
using logic::Lit;

constexpr std::uint32_t kNone = ~std::uint32_t{0};

/// A signal's value in a state: 0, 1, or kAbsent while none is known (a
/// signal the directory lacks, before its first edge, or every signal of
/// a state the initial state cannot reach).
constexpr std::uint8_t kAbsent = 2;
using Valuation = std::vector<std::uint8_t>;

struct Edge {
  std::uint32_t signal;
  bool rising;
};

/// The spec's signals, interned: the directory's names in its order, then
/// any burst signal the directory lacks; and every arc's bursts as edges
/// over them.
class Signals {
 public:
  explicit Signals(const bm::Spec& spec) {
    const auto intern = [&](std::string_view name) {
      const auto [it, fresh] =
          index.try_emplace(name, static_cast<std::uint32_t>(names.size()));
      if (fresh) {
        names.push_back(name);
        input_var.push_back(kNone);
        output.push_back(kNone);
      }
      return it->second;
    };
    std::uint32_t inputs = 0;
    for (const auto& [name, is_input] : spec.is_input) {
      const std::uint32_t s = intern(name);
      if (is_input) {
        input_var[s] = inputs++;
      } else {
        output[s] = static_cast<std::uint32_t>(outputs.size());
        outputs.push_back(s);
      }
    }
    directory = names.size();
    arc_edges.reserve(2 * spec.arcs.size() + 1);
    arc_edges.push_back(0);
    for (const bm::Arc& arc : spec.arcs) {
      for (const ch::Transition& t : arc.in_burst.transitions) {
        edges.push_back({intern(t.signal), t.rising});
      }
      arc_edges.push_back(static_cast<std::uint32_t>(edges.size()));
      for (const ch::Transition& t : arc.out_burst.transitions) {
        edges.push_back({intern(t.signal), t.rising});
      }
      arc_edges.push_back(static_cast<std::uint32_t>(edges.size()));
    }
  }

  std::span<const Edge> in_burst(std::size_t arc) const {
    return span(arc_edges[2 * arc], arc_edges[2 * arc + 1]);
  }
  std::span<const Edge> out_burst(std::size_t arc) const {
    return span(arc_edges[2 * arc + 1], arc_edges[2 * arc + 2]);
  }

  /// The input variable of the signal called `name`, or kNone.
  std::uint32_t input_var_of(std::string_view name) const {
    const auto it = index.find(name);
    return it == index.end() ? kNone : input_var[it->second];
  }

  /// The value of `signal` in `v`; throws std::out_of_range when none is
  /// known.
  bool value(const Valuation& v, std::uint32_t signal) const {
    if (v[signal] == kAbsent) {
      throw std::out_of_range("minimalist: signal '" +
                              std::string(names[signal]) +
                              "' has no known value");
    }
    return v[signal] == 1;
  }

  std::vector<std::string_view> names;
  std::size_t directory = 0;             ///< names from the directory
  std::vector<std::uint32_t> input_var;  ///< per signal, or kNone
  std::vector<std::uint32_t> output;     ///< per signal, or kNone
  std::vector<std::uint32_t> outputs;    ///< signal of each output

 private:
  std::span<const Edge> span(std::uint32_t first, std::uint32_t last) const {
    return {edges.data() + first, edges.data() + last};
  }

  std::unordered_map<std::string_view, std::uint32_t> index;
  std::vector<Edge> edges;
  /// Arc a's input burst is edges[arc_edges[2a], arc_edges[2a+1]), its
  /// output burst edges[arc_edges[2a+1], arc_edges[2a+2]).
  std::vector<std::uint32_t> arc_edges;
};

void apply(Valuation& v, std::span<const Edge> burst) {
  for (const Edge& e : burst) v[e.signal] = e.rising ? 1 : 0;
}

/// Signal valuations per state, computed by BFS from the initial state:
/// every directory signal starts low.
std::vector<Valuation> compute_valuations(const bm::Spec& spec,
                                          const Signals& signals) {
  std::vector<Valuation> at_state(spec.num_states,
                                  Valuation(signals.names.size(), kAbsent));
  Valuation& initial = at_state[spec.initial_state];
  std::fill_n(initial.begin(), signals.directory, std::uint8_t{0});

  std::vector<bool> seen(spec.num_states, false);
  const bm::OutArcs out_arcs(spec);
  seen[spec.initial_state] = true;
  std::deque<int> queue{spec.initial_state};
  Valuation v;
  while (!queue.empty()) {
    const int s = queue.front();
    queue.pop_front();
    for (const bm::Arc* arc : out_arcs.from(s)) {
      const auto a = static_cast<std::size_t>(arc - spec.arcs.data());
      v = at_state[s];
      apply(v, signals.in_burst(a));
      apply(v, signals.out_burst(a));
      if (!seen[arc->to]) {
        seen[arc->to] = true;
        at_state[arc->to] = v;
        queue.push_back(arc->to);
      } else if (at_state[arc->to] != v) {
        throw std::runtime_error(
            "minimalist: state " + std::to_string(arc->to) +
            " entered with inconsistent wire valuations");
      }
    }
  }
  return at_state;
}

void dash(Cube& c, const std::vector<std::uint32_t>& vars) {
  for (const std::uint32_t v : vars) c.set(v, Lit::kDash);
}

/// How one output moves across one arc.
enum OutputMove : std::uint8_t {
  kChanged = 1,  ///< the output burst names it
  kOld = 2,      ///< its value in the arc's source state
  kNew = 4,      ///< its value after the output burst
};

}  // namespace

MachineSpec extract(const bm::Spec& spec) {
  static obs::Counter& extracted =
      obs::Registry::global().counter("minimalist.extracted");
  extracted.add();
  MachineSpec machine;
  machine.name = spec.name;
  machine.inputs = spec.input_names();
  const std::vector<std::string> outputs = spec.output_names();
  const auto num_states = static_cast<std::size_t>(spec.num_states);
  for (std::size_t s = 0; s < num_states; ++s) {
    machine.state_bits.push_back("y" + std::to_string(s));
  }
  const std::size_t num_inputs = machine.inputs.size();
  const std::size_t num_outputs = outputs.size();
  machine.num_vars = num_inputs + num_states;
  const auto state_var = [&](int s) {
    return num_inputs + static_cast<std::size_t>(s);
  };

  machine.state_codes.assign(num_states,
                             std::vector<bool>(num_states, false));
  for (std::size_t s = 0; s < num_states; ++s) {
    machine.state_codes[s][s] = true;
  }
  machine.initial_state_code = machine.state_codes[spec.initial_state];
  machine.initial_outputs.assign(num_outputs, false);

  // Function table: outputs first, then state bits.
  for (const std::string& z : outputs) {
    FuncSpec& f = machine.functions.emplace_back();
    f.name = z;
  }
  const std::size_t state_func_base = machine.functions.size();
  for (std::size_t s = 0; s < num_states; ++s) {
    FuncSpec& f = machine.functions.emplace_back();
    f.name = machine.state_bits[s];
    f.is_state_bit = true;
  }
  const std::size_t num_functions = machine.functions.size();

  const Signals signals(spec);
  const std::vector<Valuation> vals = compute_valuations(spec, signals);

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
  // keep the classic strict-fundamental-mode cubes.  Held as input
  // variables.
  std::vector<std::vector<std::uint32_t>> early(num_states);
  if (bm::adjacency_violations(spec).empty()) {
    const std::vector<std::set<std::string>> names = bm::early_inputs(spec);
    for (std::size_t s = 0; s < num_states; ++s) {
      for (const std::string& name : names[s]) {
        const std::uint32_t var = signals.input_var_of(name);
        if (var != kNone) early[s].push_back(var);
      }
    }
  }

  // Predecessors per state: while the machine hands off p -> s, bit p is
  // still high when s's next input burst may already arrive (the peer can
  // answer faster than the feedback settles).  Transition cubes therefore
  // leave predecessor bits unconstrained instead of requiring them low.
  std::vector<std::vector<std::uint32_t>> pred_vars(num_states);
  std::vector<bool> has_arc(num_states, false);
  for (const bm::Arc& arc : spec.arcs) {
    if (arc.from != arc.to) pred_vars[arc.to].push_back(state_var(arc.from));
    has_arc[arc.from] = true;
  }

  std::vector<std::vector<Cube>> off(num_functions);

  const auto add_on = [&](std::size_t fi, Cube c, bool required) {
    (required ? machine.functions[fi].on_required
              : machine.functions[fi].on_points)
        .push_back(std::move(c));
  };
  const auto add_off = [&](std::size_t fi, Cube c) {
    off[fi].push_back(std::move(c));
  };
  // Privilege anchors constrain only input variables.
  const auto inputs_only = [&](const Cube& c) {
    Cube a(machine.num_vars);
    for (std::size_t v = 0; v < num_inputs; ++v) a.set(v, c[v]);
    return a;
  };
  const auto add_priv = [&](std::size_t fi, const Cube& t, const Cube& a) {
    machine.functions[fi].privileges.push_back(Privilege{t, a});
  };

  // Each state's entry cube: its entry valuation on the inputs (absent
  // values dashed), its own bit high and every other bit low.
  std::vector<Cube> entry;
  entry.reserve(num_states);
  {
    Cube base(machine.num_vars);
    for (std::size_t t = 0; t < num_states; ++t) {
      base.set(num_inputs + t, Lit::kZero);
    }
    for (int s = 0; s < spec.num_states; ++s) {
      Cube& c = entry.emplace_back(base);
      const Valuation& v = vals[s];
      for (std::uint32_t signal = 0; signal < v.size(); ++signal) {
        const std::uint32_t var = signals.input_var[signal];
        if (var != kNone && v[signal] != kAbsent) {
          c.set(var, v[signal] == 1 ? Lit::kOne : Lit::kZero);
        }
      }
      c.set(state_var(s), Lit::kOne);
    }
  }

  std::vector<std::uint32_t> burst_vars, early_after;
  std::vector<bool> burst_member(num_inputs, false);
  std::vector<Cube> incomplete;
  std::vector<std::uint8_t> move(num_outputs);
  Valuation val_e;
  for (std::size_t a = 0; a < spec.arcs.size(); ++a) {
    const int s = spec.arcs[a].from;
    const int s2 = spec.arcs[a].to;
    const std::span<const Edge> burst = signals.in_burst(a);

    // The burst's input variables, and the input valuation after it.
    Cube strict_end = entry[s];
    burst_vars.clear();
    for (const Edge& e : burst) {
      const std::uint32_t var = signals.input_var[e.signal];
      if (var == kNone) continue;
      burst_vars.push_back(var);
      burst_member[var] = true;
      strict_end.set(var, e.rising ? Lit::kOne : Lit::kZero);
    }

    // Early signals that survive the burst: a surviving early signal can
    // flip during the output burst and the handoff just as freely as
    // while the machine sat in s, so every post-burst cube of this arc
    // dashes it too.
    early_after.clear();
    for (const std::uint32_t var : early[s]) {
      if (!burst_member[var]) early_after.push_back(var);
    }
    for (const std::uint32_t var : burst_vars) burst_member[var] = false;

    // Trigger/transition cubes tolerate a stale predecessor bit (the
    // p -> s handoff may still be completing when this arc's burst
    // arrives); hold cubes stay strict one-hot pairs so specifications of
    // different arcs cannot claim conflicting values for the same codes.
    // Cubes anchored at s additionally dash the inputs that may arrive a
    // burst early while the machine sits in s.
    Cube start_point = entry[s];
    dash(start_point, pred_vars[s]);
    dash(start_point, early[s]);
    Cube end_point = strict_end;
    dash(end_point, pred_vars[s]);
    dash(end_point, early_after);
    Cube t_in = start_point;
    dash(t_in, burst_vars);

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
    incomplete.clear();
    if (burst.size() > 1) {
      Cube strict_t_in = entry[s];
      dash(strict_t_in, early[s]);
      dash(strict_t_in, burst_vars);
      for (const Edge& e : burst) {
        const bool before = signals.value(vals[s], e.signal);
        Cube& c = incomplete.emplace_back(strict_t_in);
        const std::uint32_t var = signals.input_var[e.signal];
        if (var != kNone) c.set(var, before ? Lit::kOne : Lit::kZero);
      }
    }

    // Hold cubes for the two-step one-hot handoff (s raises s', then s
    // falls), both at the post-burst input valuation.  hold1 is still
    // anchored at s (s'=don't-care); hold2 is anchored at s'.  Burst
    // members just transitioned and hold their new values, but early
    // signals that survive the burst stay dashed through the handoff.
    Cube hold1, hold2;
    if (s2 != s) {
      hold1 = strict_end;  // s=1, s'=-
      hold1.set(state_var(s2), Lit::kDash);
      dash(hold1, early_after);
      hold2 = strict_end;  // s=-, s'=1
      hold2.set(state_var(s), Lit::kDash);
      hold2.set(state_var(s2), Lit::kOne);
      dash(hold2, early_after);
    }
    const Cube start_anchor = inputs_only(start_point);
    const Cube end_anchor = inputs_only(end_point);

    // --- output functions ---
    // How each output moves across the arc.
    val_e = vals[s];
    apply(val_e, burst);
    apply(val_e, signals.out_burst(a));
    std::ranges::fill(move, std::uint8_t{0});
    for (const Edge& e : signals.out_burst(a)) {
      if (signals.output[e.signal] != kNone) {
        move[signals.output[e.signal]] = kChanged;
      }
    }
    for (std::size_t fi = 0; fi < num_outputs; ++fi) {
      const std::uint32_t signal = signals.outputs[fi];
      if (signals.value(vals[s], signal)) move[fi] |= kOld;
      if (signals.value(val_e, signal)) move[fi] |= kNew;
    }
    for (std::size_t fi = 0; fi < num_outputs; ++fi) {
      if (!(move[fi] & kChanged)) {
        // Static through the burst.
        if (move[fi] & kOld) {
          add_on(fi, t_in, /*required=*/true);
        } else {
          add_off(fi, t_in);
        }
      } else if (move[fi] == (kChanged | kNew)) {
        // Dynamic 0->1: fires when the burst completes; intermediates are
        // don't-care but any intersecting product must contain the end.
        // With early burst members the pre-completion region is reachable
        // out of burst order, so it is pinned OFF explicitly.
        add_on(fi, end_point, /*required=*/false);
        add_off(fi, start_point);
        for (const Cube& c : incomplete) add_off(fi, c);
        add_priv(fi, t_in, end_anchor);
      } else {
        // Dynamic 1->0: must likewise hold its old value until every
        // early member has arrived, or the handshake it drives completes
        // before the state change latches.
        add_on(fi, start_point, /*required=*/false);
        add_off(fi, end_point);
        for (const Cube& c : incomplete) add_on(fi, c, /*required=*/true);
        add_priv(fi, t_in, start_anchor);
      }
      if (s2 != s) {
        if (move[fi] & kNew) {
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
        Cube hold = t_in;
        hold.set(state_var(s2), Lit::kZero);
        add_on(fi, std::move(hold), /*required=*/true);
        Cube fall = end_point;
        fall.set(state_var(s2), Lit::kOne);
        add_off(fi, std::move(fall));
        add_off(fi, hold2);
        add_priv(fi, hold1, end_anchor);
      } else if (t == s) {
        add_on(fi, t_in, /*required=*/true);
      } else if (t == s2) {
        // Rises with the output burst, holds through the handoff.  Early
        // burst members make pre-completion points reachable: the bit
        // must not rise while any of them still sits at its old value.
        add_on(fi, end_point, /*required=*/false);
        add_off(fi, start_point);
        for (const Cube& c : incomplete) {
          Cube pin = c;
          pin.set(state_var(s2), Lit::kZero);
          add_off(fi, std::move(pin));
        }
        add_priv(fi, t_in, end_anchor);
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
    Cube stable = entry[s];
    dash(stable, early[s]);
    for (std::size_t fi = 0; fi < num_outputs; ++fi) {
      if (signals.value(vals[s], signals.outputs[fi])) {
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
  for (std::size_t fi = 0; fi < num_functions; ++fi) {
    FuncSpec& f = machine.functions[fi];
    const auto check = [&](const Cube& c) {
      for (const Cube& o : off[fi]) {
        if (c.intersects(o)) {
          throw std::runtime_error("minimalist: ON/OFF conflict on '" +
                                   f.name + "' between " + c.to_string() +
                                   " and " + o.to_string());
        }
      }
    };
    for (const Cube& c : f.on_required) check(c);
    for (const Cube& c : f.on_points) check(c);
    f.off = logic::Cover(machine.num_vars, std::move(off[fi]));
  }

  return machine;
}

}  // namespace bb::minimalist
