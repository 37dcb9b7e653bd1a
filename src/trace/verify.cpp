#include "src/trace/verify.hpp"

#include <stdexcept>

#include "src/petri/from_ch.hpp"
#include "src/util/strings.hpp"

namespace bb::trace {

std::string hide_prefix(const std::string& channel) {
  return util::to_lower(channel) + "_";
}

petri::PetriNet compose_hidden(
    const std::vector<const ch::Expr*>& members,
    const std::vector<std::string>& hidden_channels) {
  if (members.empty()) {
    throw std::invalid_argument("compose_hidden: no member programs");
  }
  petri::PetriNet composed = petri::from_ch(*members.front());
  for (std::size_t i = 1; i < members.size(); ++i) {
    composed = petri::PetriNet::compose(composed, petri::from_ch(*members[i]));
  }
  std::vector<std::string> prefixes;
  prefixes.reserve(hidden_channels.size());
  for (const std::string& channel : hidden_channels) {
    prefixes.push_back(hide_prefix(channel));
  }
  composed.hide_prefixes(prefixes);
  return composed;
}

VerifyResult verify_clustering(const ch::Expr& x, const ch::Expr& y,
                               const std::string& channel,
                               const ch::Expr& clustered) {
  const Dfa lhs =
      determinize(compose_hidden({&x, &y}, {channel}).reachability());
  const Dfa rhs = determinize(petri::from_ch(clustered).reachability());

  VerifyResult result;
  result.composed_states = lhs.num_states;
  result.clustered_states = rhs.num_states;
  result.counterexample = containment_counterexample(lhs, rhs);
  if (result.counterexample.empty()) {
    result.counterexample = containment_counterexample(rhs, lhs);
  }
  result.equivalent = result.counterexample.empty();
  return result;
}

VerifyResult verify_composition(const std::vector<const ch::Expr*>& members,
                                const std::vector<std::string>& hidden_channels,
                                const ch::Expr& clustered,
                                std::size_t state_limit) {
  const Dfa lhs = determinize(
      compose_hidden(members, hidden_channels).reachability(state_limit));
  const Dfa rhs = determinize(petri::from_ch(clustered).reachability(state_limit));

  VerifyResult result;
  result.composed_states = lhs.num_states;
  result.clustered_states = rhs.num_states;
  // Conformance, not equality: the clustered controller may refine the
  // composition (serializing concurrent output bursts is sound — the
  // delay-insensitive environment must accept either order), but every
  // trace it can produce must be one the composition allows.  The BFS
  // counterexample is therefore a minimal rejecting prefix.  Dropped
  // behaviour (the other containment direction) shows up as deadlock
  // under simulation instead.
  result.counterexample = containment_counterexample(lhs, rhs);
  result.equivalent = result.counterexample.empty();
  return result;
}

}  // namespace bb::trace
