// The Section 4.3 verification procedure, end to end:
//   1. translate the activating and activated CH programs to Petri nets;
//   2. compose them and hide the activation channel;
//   3. translate the clustered CH program to a Petri net;
//   4. check conformation equivalence of the two trace structures.
#pragma once

#include <string>
#include <vector>

#include "src/ch/ast.hpp"
#include "src/trace/automaton.hpp"

namespace bb::trace {

struct VerifyResult {
  bool equivalent = false;
  /// A witness trace distinguishing the behaviours (empty if equivalent).
  std::vector<std::string> counterexample;
  int composed_states = 0;   ///< DFA states of compose+hide
  int clustered_states = 0;  ///< DFA states of the clustered controller
};

/// The wire-name prefix hidden when channel `channel` is eliminated.
std::string hide_prefix(const std::string& channel);

/// compose(members...) with every wire of `hidden_channels` relabelled
/// tau: the specification side of verify_clustering and
/// verify_composition.  Throws std::invalid_argument when `members` is
/// empty.
petri::PetriNet compose_hidden(
    const std::vector<const ch::Expr*>& members,
    const std::vector<std::string>& hidden_channels);

/// Checks that `clustered` conforms to (compose(x, y) hide channel).
VerifyResult verify_clustering(const ch::Expr& x, const ch::Expr& y,
                               const std::string& channel,
                               const ch::Expr& clustered);

/// Generalization of verify_clustering to arbitrarily many member
/// programs and hidden (internalized) channels: checks that `clustered`
/// conforms to (compose(members...) hide channels).  This is the shape
/// the fuzz oracle needs, where T1/T2 clustering can fold several
/// controllers and eliminate several activation channels in one step.
///
/// Unlike verify_clustering this is one-directional: the clustered
/// controller may legally reduce concurrency relative to the
/// composition (enclosure substitution serializes output bursts), so
/// the check is trace containment L(clustered) ⊆ L(composed) and the
/// counterexample, when present, is a minimal rejecting prefix — a
/// shortest trace of the clustered controller the composition refuses.
/// `state_limit` bounds each reachability exploration; exceeding it
/// throws std::runtime_error (callers record the case as skipped).
VerifyResult verify_composition(const std::vector<const ch::Expr*>& members,
                                const std::vector<std::string>& hidden_channels,
                                const ch::Expr& clustered,
                                std::size_t state_limit = 1u << 20);

}  // namespace bb::trace
