#include "src/trace/automaton.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "src/obs/trace.hpp"
#include "src/util/hash.hpp"

namespace bb::trace {

namespace {

/// The LTS as compressed adjacency: tau successors and labelled
/// out-edges per state.  Labels are numbered in lexicographic order, so
/// ascending label ids visit labels in the order a std::map<std::string>
/// would.
struct Adjacency {
  std::vector<std::string_view> labels;  // by id; views into lts.edges
  std::vector<int> tau_begin, tau;       // CSR: tau successors
  std::vector<int> out_begin;            // CSR: labelled out-edges
  std::vector<std::pair<int, int>> out;  // (label id, target)

  explicit Adjacency(const petri::Lts& lts) {
    // How many ids 0..state span; state ids must not be negative.
    const auto slots = [](int state) {
      if (state < 0) {
        throw std::invalid_argument("trace::determinize: negative state id");
      }
      return static_cast<std::size_t>(state) + 1;
    };
    // Hand-built LTSs may name states at or past num_states.
    std::size_t n = std::max(
        slots(lts.initial),
        static_cast<std::size_t>(std::max(lts.num_states, 0)));
    std::map<std::string_view, int> label_ids;
    for (const petri::Lts::Edge& e : lts.edges) {
      n = std::max({n, slots(e.from), slots(e.to)});
      if (!e.label.empty()) label_ids.emplace(e.label, 0);
    }
    for (auto& [label, id] : label_ids) {
      id = static_cast<int>(labels.size());
      labels.push_back(label);
    }

    tau_begin.assign(n + 1, 0);
    out_begin.assign(n + 1, 0);
    for (const petri::Lts::Edge& e : lts.edges) {
      ++(e.label.empty() ? tau_begin : out_begin)[slots(e.from)];
    }
    for (std::size_t s = 0; s < n; ++s) {
      tau_begin[s + 1] += tau_begin[s];
      out_begin[s + 1] += out_begin[s];
    }
    tau.resize(static_cast<std::size_t>(tau_begin[n]));
    out.resize(static_cast<std::size_t>(out_begin[n]));
    std::vector<int> tau_next(tau_begin.begin(), tau_begin.end() - 1);
    std::vector<int> out_next(out_begin.begin(), out_begin.end() - 1);
    for (const petri::Lts::Edge& e : lts.edges) {
      if (e.label.empty()) {
        tau[tau_next[e.from]++] = e.to;
      } else {
        out[out_next[e.from]++] = {label_ids.at(e.label), e.to};
      }
    }
  }

  std::size_t num_states() const { return tau_begin.size() - 1; }
};

}  // namespace

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
  const Adjacency adj(lts);

  // Replaces `states` by its tau-closure as a sorted, duplicate-free
  // list: BFS over the tau adjacency, `stamp` marking the states this
  // closure has seen.
  std::vector<std::uint32_t> stamp(adj.num_states(), 0);
  std::uint32_t generation = 0;
  const auto close = [&](std::vector<int>& states) {
    ++generation;
    std::size_t kept = 0;
    for (const int s : states) {
      if (stamp[s] != generation) {
        stamp[s] = generation;
        states[kept++] = s;
      }
    }
    states.resize(kept);
    for (std::size_t i = 0; i < states.size(); ++i) {
      const int s = states[i];
      for (int k = adj.tau_begin[s]; k < adj.tau_begin[s + 1]; ++k) {
        const int t = adj.tau[k];
        if (stamp[t] != generation) {
          stamp[t] = generation;
          states.push_back(t);
        }
      }
    }
    std::sort(states.begin(), states.end());
  };

  // DFA state d is the closed subset `subsets[d]`; `index` interns
  // subsets by content.  Subsets are expanded in numbering order, the
  // order a FIFO queue would pop them.
  std::vector<std::vector<int>> subsets;
  const auto subset_bytes = [&](int d) {
    return std::string_view(reinterpret_cast<const char*>(subsets[d].data()),
                            subsets[d].size() * sizeof(int));
  };
  const auto hash = [&](int d) {
    return static_cast<std::size_t>(util::fnv1a64(subset_bytes(d)));
  };
  const auto equal = [&](int a, int b) {
    return subset_bytes(a) == subset_bytes(b);
  };
  std::unordered_set<int, decltype(hash), decltype(equal)> index(64, hash,
                                                                 equal);

  Dfa dfa;
  subsets.push_back({lts.initial});
  close(subsets.back());
  index.insert(0);
  dfa.num_states = 1;

  std::vector<std::vector<int>> successors(adj.labels.size());
  std::vector<int> live_labels;
  for (int from = 0; from < dfa.num_states; ++from) {
    // Group the subset's labelled successors by label.
    for (const int s : subsets[from]) {
      for (int k = adj.out_begin[s]; k < adj.out_begin[s + 1]; ++k) {
        const auto [label, to] = adj.out[k];
        if (successors[label].empty()) live_labels.push_back(label);
        successors[label].push_back(to);
      }
    }
    std::sort(live_labels.begin(), live_labels.end());
    for (const int label : live_labels) {
      subsets.push_back(std::move(successors[label]));
      successors[label].clear();
      close(subsets.back());
      const auto [it, inserted] = index.insert(dfa.num_states);
      if (inserted) {
        ++dfa.num_states;
      } else {
        subsets.pop_back();
      }
      dfa.delta[{from, std::string(adj.labels[label])}] = *it;
    }
    live_labels.clear();
  }
  span.arg("lts_states", static_cast<std::uint64_t>(lts.num_states));
  span.arg("lts_edges", static_cast<std::uint64_t>(lts.edges.size()));
  span.arg("dfa_states", static_cast<std::uint64_t>(dfa.num_states));
  return dfa;
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
