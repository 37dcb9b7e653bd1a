// Reference implementations of the trace engine for differential
// tests:
// - the set-based subset construction (tau-closure by rescanning every
//   LTS edge) and the vector<bool>-keyed reachability exploration that
//   PetriNet::reachability and trace::determinize must agree with, state
//   numbering, edge order and exceptions included;
// - the whole-net conformance check: compose every member's Petri net by
//   transition fusion, hide the internalized channels by wire-name
//   prefix, explore the composed net and determinize it.  The
//   compositional trace::verify_composition must reach the same verdict
//   and counterexample.  Prefix hiding differs from the engine's
//   exact-wire hiding only where one channel's name is another's
//   prefix followed by '_'.
#pragma once

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/ch/ast.hpp"
#include "src/petri/from_ch.hpp"
#include "src/petri/net.hpp"
#include "src/trace/automaton.hpp"
#include "src/trace/verify.hpp"
#include "src/util/strings.hpp"

namespace bb::trace::reference {

using StateSet = std::set<int>;

inline StateSet tau_closure(const petri::Lts& lts, StateSet states) {
  std::deque<int> queue(states.begin(), states.end());
  while (!queue.empty()) {
    const int s = queue.front();
    queue.pop_front();
    for (const petri::Lts::Edge& e : lts.edges) {
      if (e.from == s && e.label.empty() && !states.count(e.to)) {
        states.insert(e.to);
        queue.push_back(e.to);
      }
    }
  }
  return states;
}

inline Dfa determinize(const petri::Lts& lts) {
  Dfa dfa;
  std::map<StateSet, int> index;

  const StateSet start = tau_closure(lts, {lts.initial});
  index[start] = 0;
  dfa.num_states = 1;
  std::deque<StateSet> queue{start};

  while (!queue.empty()) {
    const StateSet current = std::move(queue.front());
    queue.pop_front();
    const int from = index.at(current);

    // Group successor states by label.
    std::map<std::string, StateSet> successors;
    for (const petri::Lts::Edge& e : lts.edges) {
      if (e.label.empty() || !current.count(e.from)) continue;
      successors[e.label].insert(e.to);
    }
    for (auto& [label, states] : successors) {
      const StateSet closed = tau_closure(lts, std::move(states));
      const auto [it, inserted] = index.emplace(closed, dfa.num_states);
      if (inserted) {
        ++dfa.num_states;
        queue.push_back(closed);
      }
      dfa.delta[{from, label}] = it->second;
    }
  }
  return dfa;
}

inline petri::Lts reachability(const petri::PetriNet& net,
                               std::size_t limit = 1u << 20) {
  petri::Lts lts;
  std::map<std::vector<bool>, int> index;
  std::deque<std::vector<bool>> queue;

  index[net.initial_marking()] = 0;
  queue.push_back(net.initial_marking());
  lts.num_states = 1;

  while (!queue.empty()) {
    const std::vector<bool> marking = std::move(queue.front());
    queue.pop_front();
    const int from = index.at(marking);

    for (const petri::Transition& t : net.transitions()) {
      bool enabled = true;
      for (const int p : t.pre) {
        if (!marking[p]) {
          enabled = false;
          break;
        }
      }
      if (!enabled) continue;

      std::vector<bool> next = marking;
      for (const int p : t.pre) next[p] = false;
      for (const int p : t.post) {
        if (next[p]) {
          throw std::runtime_error(
              "PetriNet::reachability: net is not 1-safe");
        }
        next[p] = true;
      }

      const auto [it, inserted] = index.emplace(next, lts.num_states);
      if (inserted) {
        ++lts.num_states;
        if (static_cast<std::size_t>(lts.num_states) > limit) {
          throw std::runtime_error(
              "PetriNet::reachability: state limit exceeded");
        }
        queue.push_back(std::move(next));
      }
      lts.edges.push_back(petri::Lts::Edge{from, it->second, t.label});
    }
  }
  return lts;
}

/// Parallel composition by transition fusion: transitions with equal
/// (non-tau) labels in the two nets synchronize; others interleave.
/// Places are disjoint-unioned.
inline petri::PetriNet compose(const petri::PetriNet& a,
                               const petri::PetriNet& b) {
  using petri::Transition;
  petri::PetriNet out;
  for (const bool marked : a.initial_marking()) out.add_place(marked);
  const int offset = a.num_places();
  for (const bool marked : b.initial_marking()) out.add_place(marked);

  const auto shift = [offset](std::vector<int> places) {
    for (int& p : places) p += offset;
    return places;
  };

  std::set<std::string> shared;
  {
    const auto alpha_a = a.alphabet();
    const auto alpha_b = b.alphabet();
    std::set_intersection(alpha_a.begin(), alpha_a.end(), alpha_b.begin(),
                          alpha_b.end(),
                          std::inserter(shared, shared.begin()));
  }

  for (const Transition& t : a.transitions()) {
    if (t.label.empty() || !shared.count(t.label)) {
      out.add_transition(t);
    }
  }
  for (const Transition& t : b.transitions()) {
    if (t.label.empty() || !shared.count(t.label)) {
      Transition copy = t;
      copy.pre = shift(copy.pre);
      copy.post = shift(copy.post);
      out.add_transition(std::move(copy));
    }
  }
  // Fuse every pair of same-labelled shared transitions.
  for (const Transition& ta : a.transitions()) {
    if (ta.label.empty() || !shared.count(ta.label)) continue;
    for (const Transition& tb : b.transitions()) {
      if (tb.label != ta.label) continue;
      Transition fused;
      fused.label = ta.label;
      fused.pre = ta.pre;
      fused.post = ta.post;
      const auto bp = shift(tb.pre);
      const auto bq = shift(tb.post);
      fused.pre.insert(fused.pre.end(), bp.begin(), bp.end());
      fused.post.insert(fused.post.end(), bq.begin(), bq.end());
      out.add_transition(std::move(fused));
    }
  }
  return out;
}

/// Relabels to tau every transition whose label starts with any of the
/// given signal prefixes (hiding a channel hides all its wires).
inline void hide_prefixes(petri::PetriNet& net,
                          const std::vector<std::string>& prefixes) {
  petri::PetriNet out;
  for (const bool marked : net.initial_marking()) out.add_place(marked);
  for (petri::Transition t : net.transitions()) {
    for (const std::string& p : prefixes) {
      if (t.label.rfind(p, 0) == 0) {
        t.label.clear();
        break;
      }
    }
    out.add_transition(std::move(t));
  }
  net = std::move(out);
}

/// The wire-name prefix hidden when channel `channel` is eliminated.
inline std::string hide_prefix(const std::string& channel) {
  return util::to_lower(channel) + "_";
}

/// compose(members...) with every wire of `hidden_channels` relabelled
/// tau.  Throws std::invalid_argument when `members` is empty.
inline petri::PetriNet compose_hidden(
    const std::vector<const ch::Expr*>& members,
    const std::vector<std::string>& hidden_channels) {
  if (members.empty()) {
    throw std::invalid_argument("compose_hidden: no member programs");
  }
  petri::PetriNet composed = petri::from_ch(*members.front());
  for (std::size_t i = 1; i < members.size(); ++i) {
    composed = compose(composed, petri::from_ch(*members[i]));
  }
  std::vector<std::string> prefixes;
  prefixes.reserve(hidden_channels.size());
  for (const std::string& channel : hidden_channels) {
    prefixes.push_back(hide_prefix(channel));
  }
  hide_prefixes(composed, prefixes);
  return composed;
}

/// The whole-net conformance check: L(clustered) ⊆ L(compose_hidden).
/// The state counts are those of the unminimized DFAs.
inline VerifyResult verify_composition(
    const std::vector<const ch::Expr*>& members,
    const std::vector<std::string>& hidden_channels,
    const ch::Expr& clustered, std::size_t state_limit = 1u << 20) {
  const Dfa lhs = trace::determinize(
      compose_hidden(members, hidden_channels).reachability(state_limit));
  const Dfa rhs = trace::determinize(
      petri::from_ch(clustered).reachability(state_limit));

  VerifyResult result;
  result.composed_states = lhs.num_states;
  result.clustered_states = rhs.num_states;
  result.counterexample = containment_counterexample(lhs, rhs);
  result.equivalent = result.counterexample.empty();
  return result;
}

}  // namespace bb::trace::reference
