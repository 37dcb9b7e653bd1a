// The trace engine's working form: automata over int label ids.
//
// Label ids index a sorted label table, so ascending ids are
// lexicographic label order and every per-state row, product and
// partition below visits labels in the order a std::map<std::string>
// would.  trace::Dfa (string labels in a std::map) is only the boundary
// form that containment checks and callers see.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/petri/net.hpp"
#include "src/trace/automaton.hpp"

namespace bb::trace {

/// A deterministic automaton; every state accepts, a missing move
/// rejects.  State s's moves are moves[row[s] .. row[s + 1]), as
/// (label id, target) pairs in ascending label order.
struct Machine {
  int initial = 0;
  std::vector<int> row{0};
  std::vector<std::pair<int, int>> moves;

  int num_states() const { return static_cast<int>(row.size()) - 1; }
};

/// A nondeterministic automaton with silent moves, as compressed
/// adjacency: tau successors and labelled (label id, target) moves per
/// state.
struct Nfa {
  int initial = 0;
  std::vector<int> tau_begin{0}, tau;
  std::vector<int> out_begin{0};
  std::vector<std::pair<int, int>> out;

  std::size_t num_states() const { return tau_begin.size() - 1; }
};

/// The LTS as an Nfa; "" edges are tau, every other label is looked up
/// in the sorted table `labels`.  Throws std::invalid_argument on a
/// negative state id or a label missing from the table.
Nfa to_nfa(const petri::Lts& lts, const std::vector<std::string>& labels);

/// The machine with every move whose label id is set in `hidden`
/// relabelled tau.
Nfa hide(const Machine& machine, const std::vector<bool>& hidden);

/// Subset construction with tau-closure.  DFA states are numbered in
/// breadth-first order, successors in ascending label order.  Throws
/// std::runtime_error when more than `limit` DFA states are reached.
Machine subset_construction(const Nfa& nfa, std::size_t limit);

/// The minimal machine of the same language: Moore partition refinement,
/// blocks numbered breadth-first from the initial state with labels in
/// ascending order, so language-equal machines minimize to equal values.
Machine minimize(const Machine& machine);

/// Synchronous product of `a` and `b` over alphabets `in_a` / `in_b`
/// (indexed by label id): a label in both alphabets needs a move in both
/// machines; a label in one alphabet moves that machine alone.  Throws
/// std::runtime_error when more than `limit` states are reached.
Machine product(const Machine& a, const std::vector<bool>& in_a,
                const Machine& b, const std::vector<bool>& in_b,
                std::size_t limit);

/// The boundary conversions; `labels` is the sorted label table.
Dfa to_dfa(const Machine& machine, const std::vector<std::string>& labels);
Machine to_machine(const Dfa& dfa, std::vector<std::string>& labels);

}  // namespace bb::trace
