// The Section 4.3 verification procedure, end to end:
//   1. translate the activating and activated CH programs to Petri nets;
//   2. compose them and hide the activation channel;
//   3. translate the clustered CH program to a Petri net;
//   4. check conformation equivalence of the two trace structures.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/ch/ast.hpp"
#include "src/trace/automaton.hpp"

namespace bb::trace {

struct VerifyResult {
  bool equivalent = false;
  /// A witness trace distinguishing the behaviours (empty if equivalent).
  std::vector<std::string> counterexample;
  int composed_states = 0;   ///< minimal DFA states of compose+hide
  int clustered_states = 0;  ///< minimal DFA states of the clustered controller
};

/// True when `label` is an edge of a wire of `channel`: the signal
/// lower(channel) + "_r" or "_a", optionally followed by a decimal wire
/// index, then "+" or "-".  Hiding a channel hides exactly these labels,
/// so hiding "c" leaves channel "c_x"'s wires visible.
bool is_channel_wire(std::string_view label, std::string_view channel);

/// The minimal DFA of (compose(members...) hide hidden_channels), built
/// compositionally: each member's net is explored, determinized and
/// minimized on its own, then the members are folded in, in order, by a
/// synchronous product over their net alphabets (the labels of all the
/// net's transitions, fired or not).  After each product every hidden
/// wire no later member mentions becomes tau, is determinized away, and
/// the result is minimized.  `state_limit` bounds every exploration,
/// product and subset construction; exceeding it throws
/// std::runtime_error, as does a member net that is not 1-safe on its
/// own.  Throws std::invalid_argument when `members` is empty.
Dfa composition_dfa(const std::vector<const ch::Expr*>& members,
                    const std::vector<std::string>& hidden_channels,
                    std::size_t state_limit = 1u << 20);

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
/// counterexample, when present, is a minimal rejecting prefix — the
/// length-lexicographically least trace of the clustered controller the
/// composition refuses.  `state_limit` bounds every exploration, product
/// and subset construction (see composition_dfa); exceeding it throws
/// std::runtime_error (callers record the case as skipped).
VerifyResult verify_composition(const std::vector<const ch::Expr*>& members,
                                const std::vector<std::string>& hidden_channels,
                                const ch::Expr& clustered,
                                std::size_t state_limit = 1u << 20);

}  // namespace bb::trace
