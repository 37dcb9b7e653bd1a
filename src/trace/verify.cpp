#include "src/trace/verify.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <stdexcept>

#include "src/obs/trace.hpp"
#include "src/petri/from_ch.hpp"
#include "src/trace/machine.hpp"
#include "src/util/strings.hpp"

namespace bb::trace {

namespace {

/// The minimal machine of `net`'s trace language over `labels`.
Machine explore(const petri::PetriNet& net,
                const std::vector<std::string>& labels,
                std::size_t state_limit, std::size_t& peak) {
  const petri::Lts lts = net.reachability(state_limit);
  peak = std::max(peak, static_cast<std::size_t>(lts.num_states));
  const Machine dfa = subset_construction(to_nfa(lts, labels), state_limit);
  peak = std::max(peak, static_cast<std::size_t>(dfa.num_states()));
  return minimize(dfa);
}

/// The minimal DFA of the clustered controller.
Dfa clustered_dfa(const ch::Expr& clustered, std::size_t state_limit) {
  const petri::PetriNet net = petri::from_ch(clustered);
  const std::vector<std::string> labels = net.alphabet();
  std::size_t peak = 0;
  return to_dfa(explore(net, labels, state_limit, peak), labels);
}

}  // namespace

bool is_channel_wire(std::string_view label, std::string_view channel) {
  const std::string wire = util::to_lower(channel);
  if (label.size() < wire.size() + 3 || label.substr(0, wire.size()) != wire) {
    return false;
  }
  label.remove_prefix(wire.size());
  if (label[0] != '_' || (label[1] != 'r' && label[1] != 'a') ||
      (label.back() != '+' && label.back() != '-')) {
    return false;
  }
  label = label.substr(2, label.size() - 3);
  return std::all_of(label.begin(), label.end(), [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  });
}

Dfa composition_dfa(const std::vector<const ch::Expr*>& members,
                    const std::vector<std::string>& hidden_channels,
                    std::size_t state_limit) {
  if (members.empty()) {
    throw std::invalid_argument("composition_dfa: no member programs");
  }
  obs::Span span("trace.compose", obs::kCatVerify);
  std::vector<petri::PetriNet> nets;
  std::vector<std::vector<std::string>> net_labels;
  std::set<std::string> names;
  for (const ch::Expr* member : members) {
    nets.push_back(petri::from_ch(*member));
    net_labels.push_back(nets.back().alphabet());
    names.insert(net_labels.back().begin(), net_labels.back().end());
  }
  const std::vector<std::string> labels(names.begin(), names.end());

  // Per member, its alphabet as a label-id mask; per label, the last
  // member whose alphabet holds it (after which it may be hidden) and
  // whether it is a wire of a hidden channel.
  std::vector<std::vector<bool>> alphabets;
  std::vector<std::size_t> last(labels.size(), 0);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    alphabets.emplace_back(labels.size(), false);
    for (const std::string& label : net_labels[i]) {
      const auto id = static_cast<std::size_t>(
          std::lower_bound(labels.begin(), labels.end(), label) -
          labels.begin());
      alphabets[i][id] = true;
      last[id] = i;
    }
  }
  std::vector<bool> hidden(labels.size(), false);
  for (std::size_t id = 0; id < labels.size(); ++id) {
    for (const std::string& channel : hidden_channels) {
      if (is_channel_wire(labels[id], channel)) hidden[id] = true;
    }
  }

  std::size_t peak = 0;
  Machine composed;
  std::vector<bool> alphabet(labels.size(), false);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    Machine member = explore(nets[i], labels, state_limit, peak);
    composed = i == 0 ? std::move(member)
                      : product(composed, alphabet, member, alphabets[i],
                                state_limit);
    peak = std::max(peak, static_cast<std::size_t>(composed.num_states()));
    std::vector<bool> hide_now(labels.size(), false);
    bool hiding = false;
    for (std::size_t id = 0; id < labels.size(); ++id) {
      alphabet[id] = alphabet[id] || alphabets[i][id];
      if (hidden[id] && last[id] == i) {
        hide_now[id] = true;
        alphabet[id] = false;
        hiding = true;
      }
    }
    if (hiding) {
      composed = subset_construction(hide(composed, hide_now), state_limit);
      peak = std::max(peak, static_cast<std::size_t>(composed.num_states()));
    }
    composed = minimize(composed);
  }
  span.arg("members", static_cast<std::uint64_t>(members.size()));
  span.arg("hidden", static_cast<std::uint64_t>(hidden_channels.size()));
  span.arg("peak_states", static_cast<std::uint64_t>(peak));
  span.arg("states", static_cast<std::uint64_t>(composed.num_states()));
  return to_dfa(composed, labels);
}

VerifyResult verify_clustering(const ch::Expr& x, const ch::Expr& y,
                               const std::string& channel,
                               const ch::Expr& clustered) {
  constexpr std::size_t kStateLimit = 1u << 20;
  const Dfa lhs = composition_dfa({&x, &y}, {channel}, kStateLimit);
  const Dfa rhs = clustered_dfa(clustered, kStateLimit);

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
  const Dfa lhs = composition_dfa(members, hidden_channels, state_limit);
  const Dfa rhs = clustered_dfa(clustered, state_limit);

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
