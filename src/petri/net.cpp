#include "src/petri/net.hpp"

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "src/obs/trace.hpp"
#include "src/util/hash.hpp"

namespace bb::petri {

int PetriNet::add_place(bool marked) {
  initial_marking_.push_back(marked);
  return static_cast<int>(initial_marking_.size()) - 1;
}

int PetriNet::add_transition(Transition t) {
  transitions_.push_back(std::move(t));
  return static_cast<int>(transitions_.size()) - 1;
}

std::vector<std::string> PetriNet::alphabet() const {
  std::set<std::string> labels;
  for (const Transition& t : transitions_) {
    if (!t.label.empty()) labels.insert(t.label);
  }
  return {labels.begin(), labels.end()};
}

Lts PetriNet::reachability(std::size_t limit) const {
  obs::Span span("petri.reachability", obs::kCatVerify);
  span.arg("places", static_cast<std::uint64_t>(num_places()));
  span.arg("transitions", static_cast<std::uint64_t>(transitions_.size()));
  // Markings are packed bit vectors, `words` words per state, stored
  // back to back in `store` in state order; `index` interns them by
  // content.  States are explored in numbering order, which is the order
  // a FIFO queue would pop them, so numbering and edge order are those of
  // a breadth-first search.
  const std::size_t words = (initial_marking_.size() + 63) / 64;
  std::vector<std::uint64_t> store(words, 0);
  for (std::size_t p = 0; p < initial_marking_.size(); ++p) {
    if (initial_marking_[p]) store[p / 64] |= std::uint64_t{1} << (p % 64);
  }

  // Per transition: pre and post place masks, and whether post lists a
  // place twice (firing would put two tokens on it).
  std::vector<std::uint64_t> pre(transitions_.size() * words, 0);
  std::vector<std::uint64_t> post(transitions_.size() * words, 0);
  std::vector<bool> post_twice(transitions_.size(), false);
  const auto set_place = [&](std::vector<std::uint64_t>& mask, std::size_t t,
                             int p) {
    if (p < 0 || p >= num_places()) {
      throw std::out_of_range("PetriNet::reachability: no place " +
                              std::to_string(p));
    }
    std::uint64_t& word = mask[t * words + static_cast<std::size_t>(p) / 64];
    const std::uint64_t bit = std::uint64_t{1} << (p % 64);
    const bool was_set = (word & bit) != 0;
    word |= bit;
    return was_set;
  };
  for (std::size_t t = 0; t < transitions_.size(); ++t) {
    for (const int p : transitions_[t].pre) set_place(pre, t, p);
    for (const int p : transitions_[t].post) {
      if (set_place(post, t, p)) post_twice[t] = true;
    }
  }

  const auto marking_bytes = [&](int state) {
    return std::string_view(
        reinterpret_cast<const char*>(store.data() + state * words),
        words * sizeof(std::uint64_t));
  };
  const auto hash = [&](int state) {
    return static_cast<std::size_t>(util::fnv1a64(marking_bytes(state)));
  };
  const auto equal = [&](int a, int b) {
    return marking_bytes(a) == marking_bytes(b);
  };
  std::unordered_set<int, decltype(hash), decltype(equal)> index(64, hash,
                                                                 equal);

  Lts lts;
  index.insert(0);
  lts.num_states = 1;
  for (int from = 0; from < lts.num_states; ++from) {
    for (std::size_t t = 0; t < transitions_.size(); ++t) {
      const std::uint64_t* m = store.data() + from * words;
      const std::uint64_t* tpre = pre.data() + t * words;
      const std::uint64_t* tpost = post.data() + t * words;
      bool enabled = true;
      bool safe = !post_twice[t];
      for (std::size_t w = 0; w < words; ++w) {
        enabled = enabled && (m[w] & tpre[w]) == tpre[w];
        safe = safe && ((m[w] & ~tpre[w]) & tpost[w]) == 0;
      }
      if (!enabled) continue;
      if (!safe) {
        throw std::runtime_error("PetriNet::reachability: net is not 1-safe");
      }

      // Append the successor as candidate state `num_states`; keep it only
      // when the marking is new.
      const int next = lts.num_states;
      store.resize(store.size() + words);
      m = store.data() + from * words;
      std::uint64_t* n = store.data() + next * words;
      for (std::size_t w = 0; w < words; ++w) {
        n[w] = (m[w] & ~tpre[w]) | tpost[w];
      }
      const auto [it, inserted] = index.insert(next);
      if (inserted) {
        ++lts.num_states;
        if (static_cast<std::size_t>(lts.num_states) > limit) {
          throw std::runtime_error(
              "PetriNet::reachability: state limit exceeded");
        }
      } else {
        store.resize(store.size() - words);
      }
      lts.edges.push_back(Lts::Edge{from, *it, transitions_[t].label});
    }
  }
  span.arg("states", static_cast<std::uint64_t>(lts.num_states));
  span.arg("edges", static_cast<std::uint64_t>(lts.edges.size()));
  return lts;
}

std::string PetriNet::to_string() const {
  std::string s = "petri-net: " + std::to_string(num_places()) + " places, " +
                  std::to_string(transitions_.size()) + " transitions\n";
  for (const Transition& t : transitions_) {
    s += "  [" + (t.label.empty() ? std::string("tau") : t.label) + "] pre={";
    for (std::size_t i = 0; i < t.pre.size(); ++i) {
      if (i > 0) s += ",";
      s += std::to_string(t.pre[i]);
    }
    s += "} post={";
    for (std::size_t i = 0; i < t.post.size(); ++i) {
      if (i > 0) s += ",";
      s += std::to_string(t.post[i]);
    }
    s += "}\n";
  }
  return s;
}

}  // namespace bb::petri
