// Trace structures (AVER substitute, Section 4.3).
//
// The paper checks "conformation equivalence" between the composed+hidden
// behaviour of two controllers and the clustered controller, using Dill's
// trace theory.  For these closed, choice-deterministic controllers that
// check reduces to equality of the prefix-closed trace languages, which we
// decide by tau-eliminating determinization (subset construction) and a
// product-automaton walk.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/petri/net.hpp"

namespace bb::trace {

/// A deterministic automaton over signal-edge labels.  Every state is
/// accepting (safety/prefix-closed languages); a missing edge rejects.
struct Dfa {
  int num_states = 0;
  int initial = 0;
  std::map<std::pair<int, std::string>, int> delta;

  /// All labels leaving `state`.
  std::vector<std::string> labels_from(int state) const;
};

/// Subset construction with tau-closure over an LTS.
Dfa determinize(const petri::Lts& lts);

/// The minimal DFA of the same language, its states numbered
/// breadth-first from the initial state with labels taken in
/// lexicographic order: language-equal DFAs minimize to equal values.
/// Unreachable states are dropped.
Dfa minimize(const Dfa& dfa);

/// True if every trace of `b` is a trace of `a` (L(b) subset of L(a)).
/// This is the safety half of trace-theory conformance.
bool language_contains(const Dfa& a, const Dfa& b);

/// Conformation equivalence: mutual containment.
bool language_equivalent(const Dfa& a, const Dfa& b);

/// A counterexample trace in L(b) \ L(a), empty when contained.
std::vector<std::string> containment_counterexample(const Dfa& a,
                                                    const Dfa& b);

/// Membership check for one observed trace: returns the shortest prefix
/// of `trace` that `dfa` rejects (a minimal counterexample against the
/// specification language), or empty when the whole trace is accepted.
/// This is how the fault-injection campaign turns a recorded gate-level
/// signal-edge sequence into a trace-verifier verdict.
std::vector<std::string> reject_prefix(const Dfa& dfa,
                                       const std::vector<std::string>& trace);

}  // namespace bb::trace
