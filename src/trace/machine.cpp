#include "src/trace/machine.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "src/util/hash.hpp"

namespace bb::trace {

namespace {

/// How many ids 0..state span; state ids must not be negative.
std::size_t slots(int state) {
  if (state < 0) {
    throw std::invalid_argument("trace: negative state id");
  }
  return static_cast<std::size_t>(state) + 1;
}

int label_id(const std::vector<std::string>& labels, const std::string& label) {
  const auto it = std::lower_bound(labels.begin(), labels.end(), label);
  if (it == labels.end() || *it != label) {
    throw std::invalid_argument("trace: label '" + label +
                                "' is not in the label table");
  }
  return static_cast<int>(it - labels.begin());
}

/// An unordered_set of ids that hashes and compares the int spans
/// `span(id)` returns, to intern subsets and signatures by content.
template <typename Span>
auto span_index(const Span& span) {
  const auto bytes = [span](int id) {
    const auto [data, size] = span(id);
    return std::string_view(reinterpret_cast<const char*>(data),
                            size * sizeof(int));
  };
  const auto hash = [bytes](int id) {
    return static_cast<std::size_t>(util::fnv1a64(bytes(id)));
  };
  const auto equal = [bytes](int a, int b) { return bytes(a) == bytes(b); };
  return std::unordered_set<int, decltype(hash), decltype(equal)>(64, hash,
                                                                  equal);
}

}  // namespace

Nfa to_nfa(const petri::Lts& lts, const std::vector<std::string>& labels) {
  // Hand-built LTSs may name states at or past num_states.
  std::size_t n = std::max(
      slots(lts.initial), static_cast<std::size_t>(std::max(lts.num_states, 0)));
  for (const petri::Lts::Edge& e : lts.edges) {
    n = std::max({n, slots(e.from), slots(e.to)});
  }
  Nfa nfa;
  nfa.initial = lts.initial;
  nfa.tau_begin.assign(n + 1, 0);
  nfa.out_begin.assign(n + 1, 0);
  for (const petri::Lts::Edge& e : lts.edges) {
    ++(e.label.empty() ? nfa.tau_begin : nfa.out_begin)[slots(e.from)];
  }
  for (std::size_t s = 0; s < n; ++s) {
    nfa.tau_begin[s + 1] += nfa.tau_begin[s];
    nfa.out_begin[s + 1] += nfa.out_begin[s];
  }
  nfa.tau.resize(static_cast<std::size_t>(nfa.tau_begin[n]));
  nfa.out.resize(static_cast<std::size_t>(nfa.out_begin[n]));
  std::vector<int> tau_next(nfa.tau_begin.begin(), nfa.tau_begin.end() - 1);
  std::vector<int> out_next(nfa.out_begin.begin(), nfa.out_begin.end() - 1);
  for (const petri::Lts::Edge& e : lts.edges) {
    if (e.label.empty()) {
      nfa.tau[tau_next[e.from]++] = e.to;
    } else {
      nfa.out[out_next[e.from]++] = {label_id(labels, e.label), e.to};
    }
  }
  return nfa;
}

Nfa hide(const Machine& machine, const std::vector<bool>& hidden) {
  Nfa nfa;
  nfa.initial = machine.initial;
  for (int s = 0; s < machine.num_states(); ++s) {
    for (int k = machine.row[s]; k < machine.row[s + 1]; ++k) {
      const auto [label, to] = machine.moves[k];
      if (hidden[label]) {
        nfa.tau.push_back(to);
      } else {
        nfa.out.emplace_back(label, to);
      }
    }
    nfa.tau_begin.push_back(static_cast<int>(nfa.tau.size()));
    nfa.out_begin.push_back(static_cast<int>(nfa.out.size()));
  }
  return nfa;
}

Machine subset_construction(const Nfa& nfa, std::size_t limit) {
  // Replaces `states` by its tau-closure as a sorted, duplicate-free
  // list: BFS over the tau adjacency, `stamp` marking the states this
  // closure has seen.
  std::vector<std::uint32_t> stamp(nfa.num_states(), 0);
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
      for (int k = nfa.tau_begin[s]; k < nfa.tau_begin[s + 1]; ++k) {
        const int t = nfa.tau[k];
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
  auto index = span_index([&subsets](int d) {
    return std::pair{subsets[d].data(), subsets[d].size()};
  });

  Machine dfa;
  dfa.initial = 0;
  subsets.push_back({nfa.initial});
  close(subsets.back());
  index.insert(0);

  int labels = 0;
  for (const auto& [label, to] : nfa.out) labels = std::max(labels, label + 1);
  std::vector<std::vector<int>> successors(static_cast<std::size_t>(labels));
  std::vector<int> live_labels;
  for (std::size_t from = 0; from < subsets.size(); ++from) {
    // Group the subset's labelled successors by label.
    for (const int s : subsets[from]) {
      for (int k = nfa.out_begin[s]; k < nfa.out_begin[s + 1]; ++k) {
        const auto [label, to] = nfa.out[k];
        if (successors[label].empty()) live_labels.push_back(label);
        successors[label].push_back(to);
      }
    }
    std::sort(live_labels.begin(), live_labels.end());
    for (const int label : live_labels) {
      const int next = static_cast<int>(subsets.size());
      subsets.push_back(std::move(successors[label]));
      successors[label].clear();
      close(subsets.back());
      const auto [it, inserted] = index.insert(next);
      if (!inserted) {
        subsets.pop_back();
      } else if (subsets.size() > limit) {
        throw std::runtime_error(
            "trace::subset_construction: state limit exceeded");
      }
      dfa.moves.emplace_back(label, *it);
    }
    dfa.row.push_back(static_cast<int>(dfa.moves.size()));
    live_labels.clear();
  }
  return dfa;
}

Machine minimize(const Machine& machine) {
  const int n = machine.num_states();
  // Moore refinement: a state's signature is its block and its row with
  // targets replaced by their blocks; states split when signatures
  // differ, until the block count stops growing.
  std::vector<int> block(static_cast<std::size_t>(n), 0);
  std::vector<int> next(block.size());
  std::vector<int> signature, signature_begin(block.size() + 1);
  int blocks = 1;
  for (;;) {
    signature.clear();
    for (int s = 0; s < n; ++s) {
      signature_begin[s] = static_cast<int>(signature.size());
      signature.push_back(block[s]);
      for (int k = machine.row[s]; k < machine.row[s + 1]; ++k) {
        signature.push_back(machine.moves[k].first);
        signature.push_back(block[machine.moves[k].second]);
      }
    }
    signature_begin[n] = static_cast<int>(signature.size());
    auto index = span_index([&](int s) {
      return std::pair{signature.data() + signature_begin[s],
                       static_cast<std::size_t>(signature_begin[s + 1] -
                                                signature_begin[s])};
    });
    int count = 0;
    for (int s = 0; s < n; ++s) {
      const auto [it, inserted] = index.insert(s);
      next[s] = inserted ? count++ : next[*it];
    }
    if (count == blocks) break;
    blocks = count;
    block.swap(next);
  }

  // Number the blocks breadth-first from the initial state, each block
  // taking its first member's row.
  std::vector<int> member(static_cast<std::size_t>(blocks), -1);
  for (int s = n - 1; s >= 0; --s) member[block[s]] = s;
  std::vector<int> number(member.size(), -1);
  std::vector<int> order{block[machine.initial]};
  number[order.front()] = 0;
  Machine out;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const int s = member[order[i]];
    for (int k = machine.row[s]; k < machine.row[s + 1]; ++k) {
      const auto [label, to] = machine.moves[k];
      int& target = number[block[to]];
      if (target < 0) {
        target = static_cast<int>(order.size());
        order.push_back(block[to]);
      }
      out.moves.emplace_back(label, target);
    }
    out.row.push_back(static_cast<int>(out.moves.size()));
  }
  return out;
}

Machine product(const Machine& a, const std::vector<bool>& in_a,
                const Machine& b, const std::vector<bool>& in_b,
                std::size_t limit) {
  // Product states in discovery order; `index` maps (p, q) to its id.
  std::vector<std::pair<int, int>> states{{a.initial, b.initial}};
  std::unordered_map<std::uint64_t, int> index;
  const auto key = [](int p, int q) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(p)) << 32 |
           static_cast<std::uint32_t>(q);
  };
  index.emplace(key(a.initial, b.initial), 0);
  const auto intern = [&](int p, int q) {
    const auto [it, inserted] =
        index.emplace(key(p, q), static_cast<int>(states.size()));
    if (inserted) {
      states.emplace_back(p, q);
      if (states.size() > limit) {
        throw std::runtime_error("trace::product: state limit exceeded");
      }
    }
    return it->second;
  };

  Machine out;
  for (std::size_t i = 0; i < states.size(); ++i) {
    const auto [p, q] = states[i];
    // Merge the two rows in label order.  A shared label appears in both
    // rows or blocks; a private one moves its machine alone.
    int ka = a.row[p], kb = b.row[q];
    while (ka < a.row[p + 1] || kb < b.row[q + 1]) {
      const int la = ka < a.row[p + 1] ? a.moves[ka].first : INT_MAX;
      const int lb = kb < b.row[q + 1] ? b.moves[kb].first : INT_MAX;
      if (la == lb) {
        out.moves.emplace_back(la, intern(a.moves[ka++].second,
                                          b.moves[kb++].second));
      } else if (la < lb) {
        if (!in_b[la]) out.moves.emplace_back(la, intern(a.moves[ka].second, q));
        ++ka;
      } else {
        if (!in_a[lb]) out.moves.emplace_back(lb, intern(p, b.moves[kb].second));
        ++kb;
      }
    }
    out.row.push_back(static_cast<int>(out.moves.size()));
  }
  return out;
}

Dfa to_dfa(const Machine& machine, const std::vector<std::string>& labels) {
  Dfa dfa;
  dfa.num_states = machine.num_states();
  dfa.initial = machine.initial;
  // Rows in state order with ascending label ids are ascending map keys.
  for (int s = 0; s < machine.num_states(); ++s) {
    for (int k = machine.row[s]; k < machine.row[s + 1]; ++k) {
      dfa.delta.emplace_hint(dfa.delta.end(),
                             std::pair{s, labels[machine.moves[k].first]},
                             machine.moves[k].second);
    }
  }
  return dfa;
}

Machine to_machine(const Dfa& dfa, std::vector<std::string>& labels) {
  std::set<std::string_view> names;
  std::size_t n = std::max(
      slots(dfa.initial), static_cast<std::size_t>(std::max(dfa.num_states, 0)));
  for (const auto& [from_label, to] : dfa.delta) {
    names.insert(from_label.second);
    n = std::max({n, slots(from_label.first), slots(to)});
  }
  labels.assign(names.begin(), names.end());

  Machine machine;
  machine.initial = dfa.initial;
  auto it = dfa.delta.begin();
  for (std::size_t s = 0; s < n; ++s) {
    for (; it != dfa.delta.end() &&
           it->first.first == static_cast<int>(s);
         ++it) {
      machine.moves.emplace_back(label_id(labels, it->first.second),
                                 it->second);
    }
    machine.row.push_back(static_cast<int>(machine.moves.size()));
  }
  return machine;
}

}  // namespace bb::trace
