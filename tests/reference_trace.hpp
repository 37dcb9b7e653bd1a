// Reference implementations of the trace engine's two kernels for
// differential tests: the set-based subset construction (tau-closure by
// rescanning every LTS edge) and the vector<bool>-keyed reachability
// exploration that PetriNet::reachability and trace::determinize must
// agree with, state numbering, edge order and exceptions included.
#pragma once

#include <deque>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/petri/net.hpp"
#include "src/trace/automaton.hpp"

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

}  // namespace bb::trace::reference
