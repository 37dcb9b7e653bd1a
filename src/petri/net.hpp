// 1-safe labelled Petri nets: the low-level model the paper's verification
// flow (Section 4.3) translates CH programs into before handing them to
// the trace-theory verifier.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bb::petri {

/// A transition fires when all pre-places are marked; it consumes those
/// tokens and produces tokens on its post-places.  `label` is a signal
/// edge like "c_r+", or "" for a silent (tau) transition.
struct Transition {
  std::string label;
  std::vector<int> pre;
  std::vector<int> post;
};

/// The reachability graph of a 1-safe net: a labelled transition system.
struct Lts {
  struct Edge {
    int from = 0;
    int to = 0;
    std::string label;  // "" = tau
  };
  int num_states = 0;
  int initial = 0;
  std::vector<Edge> edges;
};

class PetriNet {
 public:
  /// Adds a place; returns its id.  `marked` sets the initial marking.
  int add_place(bool marked = false);

  /// Adds a transition; returns its id.
  int add_transition(Transition t);

  int num_places() const { return static_cast<int>(initial_marking_.size()); }
  const std::vector<Transition>& transitions() const { return transitions_; }
  const std::vector<bool>& initial_marking() const { return initial_marking_; }

  /// All labels appearing in the net (excluding tau).
  std::vector<std::string> alphabet() const;

  /// Exhaustive breadth-first reachability: state 0 is the initial
  /// marking and states are numbered in discovery order.  Throws
  /// std::runtime_error when the net is not 1-safe or the state count
  /// exceeds `limit`.
  Lts reachability(std::size_t limit = 1u << 20) const;

  std::string to_string() const;

 private:
  std::vector<bool> initial_marking_;
  std::vector<Transition> transitions_;
};

}  // namespace bb::petri
