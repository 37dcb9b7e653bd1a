#include "src/minimalist/statemin.hpp"

#include <deque>
#include <map>
#include <set>
#include <string>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace bb::minimalist {

namespace {

/// Entry valuation per state, as a canonical string.
std::vector<std::string> entry_signatures(const bm::Spec& spec,
                                          const bm::OutArcs& out_arcs) {
  std::vector<std::map<std::string, bool>> vals(spec.num_states);
  std::vector<bool> seen(spec.num_states, false);
  for (const auto& entry : spec.is_input) {
    vals[spec.initial_state][entry.first] = false;
  }
  seen[spec.initial_state] = true;
  std::deque<int> queue{spec.initial_state};
  while (!queue.empty()) {
    const int s = queue.front();
    queue.pop_front();
    for (const bm::Arc* arc : out_arcs.from(s)) {
      auto v = vals[s];
      for (const auto& t : arc->in_burst.transitions) v[t.signal] = t.rising;
      for (const auto& t : arc->out_burst.transitions) v[t.signal] = t.rising;
      if (!seen[arc->to]) {
        seen[arc->to] = true;
        vals[arc->to] = std::move(v);
        queue.push_back(arc->to);
      }
    }
  }
  std::vector<std::string> sig(spec.num_states);
  for (int s = 0; s < spec.num_states; ++s) {
    for (const auto& [name, value] : vals[s]) {
      sig[s] += name + (value ? "1" : "0") + ";";
    }
  }
  return sig;
}

}  // namespace

StateMinResult minimize_states(const bm::Spec& spec,
                               util::WorkBudget* budget) {
  obs::Span span("minimalist.statemin", obs::kCatSynth);
  span.arg("controller", spec.name);
  span.arg("states", static_cast<std::uint64_t>(spec.num_states));
  // Initial partition: entry valuation + the initial-state marker (the
  // initial state must stay in its own mergeable group only with states
  // that are truly equivalent to it, which refinement decides).
  const bm::OutArcs out_arcs(spec);
  std::vector<int> block = [&] {
    const auto sig = entry_signatures(spec, out_arcs);
    std::map<std::string, int> index;
    std::vector<int> out(spec.num_states);
    for (int s = 0; s < spec.num_states; ++s) {
      const auto [it, inserted] =
          index.emplace(sig[s], static_cast<int>(index.size()));
      out[s] = it->second;
    }
    return out;
  }();

  // Refinement: states in a block must have identical (in burst -> out
  // burst, target block) maps.
  bool changed = true;
  std::uint64_t passes = 0;  // batched into the registry after the loop
  while (changed) {
    changed = false;
    ++passes;
    if (budget != nullptr) {
      budget->charge(static_cast<std::uint64_t>(spec.num_states));
    }
    std::map<std::pair<int, std::string>, int> index;
    std::vector<int> next(spec.num_states);
    for (int s = 0; s < spec.num_states; ++s) {
      std::map<std::string, std::string> arcs;
      for (const bm::Arc* a : out_arcs.from(s)) {
        arcs[a->in_burst.to_string()] =
            a->out_burst.to_string() + ">" + std::to_string(block[a->to]);
      }
      std::string key;
      for (const auto& [in, rest] : arcs) key += in + "|" + rest + ";";
      const auto [it, inserted] = index.emplace(
          std::make_pair(block[s], key), static_cast<int>(index.size()));
      next[s] = it->second;
    }
    if (next != block) {
      block = std::move(next);
      changed = true;
    }
  }

  // Renumber blocks with the initial state's block first.
  std::map<int, int> number;
  number[block[spec.initial_state]] = 0;
  for (int s = 0; s < spec.num_states; ++s) {
    number.emplace(block[s], static_cast<int>(number.size()));
  }

  StateMinResult result;
  result.spec.name = spec.name;
  result.spec.is_input = spec.is_input;
  result.spec.initial_state = 0;
  result.spec.num_states = static_cast<int>(number.size());
  result.merged_states = spec.num_states - result.spec.num_states;
  obs::Registry& registry = obs::Registry::global();
  registry.counter("minimalist.statemin.passes").add(passes);
  registry.counter("minimalist.statemin.merged")
      .add(static_cast<std::uint64_t>(result.merged_states));
  span.arg("passes", passes);
  span.arg("merged", static_cast<std::uint64_t>(result.merged_states));

  std::set<std::string> seen;
  for (const bm::Arc& a : spec.arcs) {
    bm::Arc out = a;
    out.from = number.at(block[a.from]);
    out.to = number.at(block[a.to]);
    const std::string key = std::to_string(out.from) + ">" +
                            std::to_string(out.to) + ":" +
                            out.in_burst.to_string() + "|" +
                            out.out_burst.to_string();
    if (seen.insert(key).second) result.spec.arcs.push_back(std::move(out));
  }
  return result;
}

}  // namespace bb::minimalist
