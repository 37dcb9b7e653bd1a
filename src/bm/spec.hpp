// Burst-Mode (BM) controller specifications (paper Section 3.6).
//
// A BM machine is a Mealy-style state graph.  Each arc carries an input
// burst (a set of input edges that may arrive in any order) followed by an
// output burst (a set of output edges generated once the whole input burst
// has arrived).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/ch/ast.hpp"

namespace bb::bm {

/// A set of signal edges.  Transitions are unordered within a burst.
struct Burst {
  std::vector<ch::Transition> transitions;

  bool empty() const { return transitions.empty(); }
  std::size_t size() const { return transitions.size(); }

  /// True if every transition of `other` appears in this burst.
  bool contains(const Burst& other) const;

  /// Canonical text, transitions sorted by signal: "a_r+ b_r+".
  std::string to_string() const;

  /// Sorts transitions by signal name (canonical form).
  void normalize();

  bool operator==(const Burst& other) const;
};

/// A specification arc: from --[in_burst / out_burst]--> to.
struct Arc {
  int from = 0;
  int to = 0;
  Burst in_burst;
  Burst out_burst;
};

/// A complete Burst-Mode specification.
struct Spec {
  std::string name;
  int num_states = 0;
  int initial_state = 0;
  std::vector<Arc> arcs;
  /// Signal directory: name -> true if input.
  std::map<std::string, bool> is_input;

  std::vector<std::string> input_names() const;
  std::vector<std::string> output_names() const;

  /// Renders in the textual ".bms" format used by Burst-Mode tools:
  ///   name <name> / input <sig> <initial> / output <sig> <initial> /
  ///   <from> <to> <in burst> | <out burst>
  std::string to_bms() const;

  /// Stable, name-free serialization used as a content-address for the
  /// synthesis cache: signals are renamed to their positional index in
  /// the machine's variable order ("i<k>" for the k-th input, "o<k>" for
  /// the k-th output), burst transitions are sorted, and arcs keep their
  /// stored order (arc order influences minimization, burst order does
  /// not).  Two specs with equal canonical forms synthesize to the same
  /// controller up to signal names.
  std::string to_canonical() const;

  /// Graphviz rendering for inspection.
  std::string to_dot() const;
};

/// The arcs leaving each state, in arc order, indexed in one pass over
/// the arcs.  Any state number is a valid query: one that no arc leaves
/// has an empty list.
class OutArcs {
 public:
  explicit OutArcs(const Spec& spec);
  const std::vector<const Arc*>& from(int state) const;

 private:
  int first_ = 0;  ///< state number of by_state_[0]
  std::vector<std::vector<const Arc*>> by_state_;
  std::vector<const Arc*> none_;
};

}  // namespace bb::bm
