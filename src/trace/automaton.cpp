#include "src/trace/automaton.hpp"

#include <cstdint>
#include <deque>
#include <set>
#include <string_view>

#include "src/obs/trace.hpp"
#include "src/trace/machine.hpp"

namespace bb::trace {

std::vector<std::string> Dfa::labels_from(int state) const {
  std::vector<std::string> out;
  for (auto it = delta.lower_bound({state, std::string()});
       it != delta.end() && it->first.first == state; ++it) {
    out.push_back(it->first.second);
  }
  return out;
}

Dfa determinize(const petri::Lts& lts) {
  obs::Span span("trace.determinize", obs::kCatVerify);
  std::set<std::string_view> names;
  for (const petri::Lts::Edge& e : lts.edges) {
    if (!e.label.empty()) names.insert(e.label);
  }
  const std::vector<std::string> labels(names.begin(), names.end());
  const Dfa dfa = to_dfa(
      subset_construction(to_nfa(lts, labels), SIZE_MAX), labels);
  span.arg("lts_states", static_cast<std::uint64_t>(lts.num_states));
  span.arg("lts_edges", static_cast<std::uint64_t>(lts.edges.size()));
  span.arg("dfa_states", static_cast<std::uint64_t>(dfa.num_states));
  return dfa;
}

Dfa minimize(const Dfa& dfa) {
  std::vector<std::string> labels;
  const Machine machine = to_machine(dfa, labels);
  return to_dfa(minimize(machine), labels);
}

std::vector<std::string> containment_counterexample(const Dfa& a,
                                                    const Dfa& b) {
  obs::Span span("trace.containment", obs::kCatVerify);
  // BFS over the product; a trace of b with no matching move in a is a
  // counterexample.
  struct Node {
    int sa;
    int sb;
    std::vector<std::string> path;
  };
  std::set<std::pair<int, int>> seen{{a.initial, b.initial}};
  std::deque<Node> queue{{a.initial, b.initial, {}}};
  while (!queue.empty()) {
    Node node = std::move(queue.front());
    queue.pop_front();
    for (const std::string& label : b.labels_from(node.sb)) {
      const int nb = b.delta.at({node.sb, label});
      const auto ia = a.delta.find({node.sa, label});
      std::vector<std::string> path = node.path;
      path.push_back(label);
      if (ia == a.delta.end()) return path;
      if (seen.insert({ia->second, nb}).second) {
        queue.push_back(Node{ia->second, nb, std::move(path)});
      }
    }
  }
  return {};
}

std::vector<std::string> reject_prefix(const Dfa& dfa,
                                       const std::vector<std::string>& trace) {
  int state = dfa.initial;
  std::vector<std::string> prefix;
  for (const std::string& label : trace) {
    prefix.push_back(label);
    const auto it = dfa.delta.find({state, label});
    if (it == dfa.delta.end()) return prefix;
    state = it->second;
  }
  return {};
}

bool language_contains(const Dfa& a, const Dfa& b) {
  return containment_counterexample(a, b).empty();
}

bool language_equivalent(const Dfa& a, const Dfa& b) {
  return language_contains(a, b) && language_contains(b, a);
}

}  // namespace bb::trace
