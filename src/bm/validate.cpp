#include "src/bm/validate.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <set>

namespace bb::bm {

namespace {

/// A wire valuation: one value per signal, indexed by the signal's rank
/// in name order, which is the order messages print valuations in.
using Valuation = std::vector<char>;

std::string arc_name(const Arc& a) {
  return "arc " + std::to_string(a.from) + "->" + std::to_string(a.to);
}

std::string edge_name(const ch::Transition& t) {
  return t.signal + (t.rising ? "+" : "-");
}

std::string valuation_string(const Valuation& vals,
                             const std::vector<const std::string*>& names) {
  std::string s = "{";
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (i > 0) s += " ";
    s += *names[i] + "=" + (vals[i] ? "1" : "0");
  }
  return s + "}";
}

/// Applies a burst (its transitions and their signal ranks) to a
/// valuation, reporting BM005 for every edge that does not alternate.
/// Returns false when a violation was found.
bool apply_burst(const Burst& burst, const int* ranks, Valuation& vals,
                 const Arc& arc, const char* which,
                 const std::vector<const std::string*>& names,
                 lint::Report& report) {
  bool clean = true;
  for (std::size_t k = 0; k < burst.transitions.size(); ++k) {
    const ch::Transition& t = burst.transitions[k];
    char& value = vals[static_cast<std::size_t>(ranks[k])];
    const bool current = value != 0;
    if (current == t.rising) {
      report.add("BM005", arc_name(arc),
                 std::string(which) + " burst repeats edge '" + edge_name(t) +
                     "' while '" + t.signal + "' is already " +
                     (current ? "1" : "0") + "; along every path a wire must "
                     "strictly alternate rising and falling edges (entered "
                     "with valuation " + valuation_string(vals, names) + ")");
      clean = false;
      continue;
    }
    value = t.rising ? 1 : 0;
  }
  return clean;
}

/// A burst as the sorted, de-duplicated codes of its transitions, so set
/// equality and containment (Burst::operator==, Burst::contains) become
/// vector comparisons.
std::vector<int> burst_codes(const Burst& burst, const int* ranks) {
  std::vector<int> codes;
  codes.reserve(burst.transitions.size());
  for (std::size_t k = 0; k < burst.transitions.size(); ++k) {
    const ch::Transition& t = burst.transitions[k];
    codes.push_back(ranks[k] * 4 + (t.rising ? 2 : 0) + (t.is_input ? 1 : 0));
  }
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  return codes;
}

}  // namespace

ValidationResult validate(const Spec& spec) {
  ValidationResult result;
  lint::Report& report = result.report;

  // 1. Direction consistency (BM001).  Remember the first arc that used
  // each signal in each direction so the message names both witnesses.
  struct DirUse {
    bool is_input = false;
    const Arc* first_use = nullptr;
    int rank = 0;  ///< position in name order, set once all are known
  };
  std::map<std::string, DirUse> direction;
  std::set<std::string> reported_bidi;
  // Every transition's directory entry, arc by arc (input burst, then
  // output burst; arc i's first is uses[first[i]]): the signal ranks the
  // later checks index by.
  std::vector<DirUse*> uses;
  std::vector<std::size_t> first(spec.arcs.size() + 1, 0);
  const auto use_signal = [&](const ch::Transition& t, bool as_input,
                              const Arc& a) {
    const auto [it, inserted] =
        direction.emplace(t.signal, DirUse{as_input, &a});
    if (!inserted && it->second.is_input != as_input &&
        reported_bidi.insert(t.signal).second) {
      const Arc& other = *it->second.first_use;
      report.add("BM001", "signal '" + t.signal + "'",
                 std::string("used as an ") + (as_input ? "input" : "output") +
                     " in " + arc_name(a) + " but as an " +
                     (as_input ? "output" : "input") + " in " +
                     arc_name(other) +
                     "; a Burst-Mode wire must have a single direction");
    }
    return &it->second;
  };
  for (std::size_t i = 0; i < spec.arcs.size(); ++i) {
    const Arc& a = spec.arcs[i];
    first[i] = uses.size();
    for (const ch::Transition& t : a.in_burst.transitions) {
      uses.push_back(use_signal(t, /*as_input=*/true, a));
    }
    for (const ch::Transition& t : a.out_burst.transitions) {
      uses.push_back(use_signal(t, /*as_input=*/false, a));
    }
  }
  first[spec.arcs.size()] = uses.size();
  std::vector<const std::string*> names;
  names.reserve(direction.size());
  for (auto& [signal, use] : direction) {
    use.rank = static_cast<int>(names.size());
    names.push_back(&signal);
  }
  std::vector<int> ranks(uses.size());
  for (std::size_t k = 0; k < uses.size(); ++k) ranks[k] = uses[k]->rank;
  const auto in_ranks = [&](std::size_t i) { return ranks.data() + first[i]; };
  const auto out_ranks = [&](std::size_t i) {
    return ranks.data() + first[i] + spec.arcs[i].in_burst.size();
  };
  const auto index_of = [&spec](const Arc* a) {
    return static_cast<std::size_t>(a - spec.arcs.data());
  };
  const OutArcs out_arcs(spec);

  // 2. Non-empty input bursts (BM002).
  for (const Arc& a : spec.arcs) {
    if (a.in_burst.empty()) {
      report.add("BM002", arc_name(a),
                 "input burst is empty; every arc must be triggered by at "
                 "least one input edge (machines are input-driven), with "
                 "output burst {" + a.out_burst.to_string() + "}");
    }
  }

  // 3. Determinism and the maximal set property per state (BM003/BM004).
  std::vector<std::vector<int>> in_codes(spec.arcs.size());
  for (std::size_t i = 0; i < spec.arcs.size(); ++i) {
    in_codes[i] = burst_codes(spec.arcs[i].in_burst, in_ranks(i));
  }
  for (int s = 0; s < spec.num_states; ++s) {
    const auto& arcs = out_arcs.from(s);
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      for (std::size_t j = 0; j < arcs.size(); ++j) {
        if (i == j) continue;
        const std::vector<int>& ci = in_codes[index_of(arcs[i])];
        const std::vector<int>& cj = in_codes[index_of(arcs[j])];
        const Burst& bi = arcs[i]->in_burst;
        const Burst& bj = arcs[j]->in_burst;
        if (ci == cj) {
          // Report each unordered pair once.
          if (i < j) {
            report.add("BM003", "state " + std::to_string(s),
                       arc_name(*arcs[i]) + " and " + arc_name(*arcs[j]) +
                           " have the identical input burst {" +
                           bi.to_string() +
                           "}; the machine cannot choose between them");
          }
          continue;
        }
        if (std::includes(cj.begin(), cj.end(), ci.begin(), ci.end())) {
          report.add("BM004", "state " + std::to_string(s),
                     "input burst {" + bi.to_string() + "} of " +
                         arc_name(*arcs[i]) +
                         " is contained in sibling burst {" + bj.to_string() +
                         "} of " + arc_name(*arcs[j]) + "; " +
                         arc_name(*arcs[i]) +
                         " would fire spuriously while the larger burst is "
                         "still arriving (maximal set property, Section 3.5)");
        }
      }
    }
  }

  // 4. Polarity / unique-entry-valuation consistency via BFS over the
  // reachable part of the machine (BM005/BM006), then reachability
  // itself (BM007).
  // Each entered state owns one row of a flat valuation table, appended
  // in the order states are entered, so memory is entered states x
  // signals however sparse the state numbers are.  `row` maps a state
  // number (offset to the lowest number any arc or the initial state
  // uses) to its row, -1 until the state is entered.
  int lo = spec.initial_state;
  int hi = spec.initial_state;
  for (const Arc& a : spec.arcs) {
    lo = std::min({lo, a.from, a.to});
    hi = std::max({hi, a.from, a.to});
  }
  const std::ptrdiff_t width = static_cast<std::ptrdiff_t>(names.size());
  const auto slot = [lo](int s) { return static_cast<std::size_t>(s - lo); };
  std::vector<std::ptrdiff_t> row(slot(hi) + 1, -1);
  std::vector<char> entry_vals(names.size(), 0);
  std::ptrdiff_t rows = 1;
  const auto row_begin = [&](int s) {
    return entry_vals.begin() + row[slot(s)] * width;
  };
  std::deque<int> queue;
  row[slot(spec.initial_state)] = 0;
  queue.push_back(spec.initial_state);
  Valuation vals;
  while (!queue.empty()) {
    const int s = queue.front();
    queue.pop_front();
    for (const Arc* a : out_arcs.from(s)) {
      const std::size_t ai = index_of(a);
      vals.assign(row_begin(s), row_begin(s) + width);
      if (!apply_burst(a->in_burst, in_ranks(ai), vals, *a, "input", names,
                       report)) {
        continue;
      }
      if (!apply_burst(a->out_burst, out_ranks(ai), vals, *a, "output", names,
                       report)) {
        continue;
      }
      if (row[slot(a->to)] < 0) {
        row[slot(a->to)] = rows++;
        entry_vals.insert(entry_vals.end(), vals.begin(), vals.end());
        queue.push_back(a->to);
      } else if (!std::equal(vals.begin(), vals.end(), row_begin(a->to))) {
        const Valuation earlier(row_begin(a->to), row_begin(a->to) + width);
        std::string differing;
        for (std::size_t r = 0; r < names.size(); ++r) {
          if (earlier[r] != vals[r]) {
            if (!differing.empty()) differing += ", ";
            differing += *names[r];
          }
        }
        report.add("BM006", "state " + std::to_string(a->to),
                   "entered with valuation " + valuation_string(vals, names) +
                       " via " + arc_name(*a) + " but with " +
                       valuation_string(earlier, names) +
                       " via an earlier path; signals differing: " +
                       (differing.empty() ? "(none)" : differing));
      }
    }
  }
  for (int s = 0; s < spec.num_states; ++s) {
    if (s < lo || s > hi || row[slot(s)] < 0) {
      report.add("BM007", "state " + std::to_string(s),
                 "unreachable from initial state " +
                     std::to_string(spec.initial_state) +
                     "; it can never be entered and its arcs are dead");
    }
  }

  result.ok = !report.has_errors();
  for (const lint::Diagnostic* d :
       report.by_severity(lint::Severity::kError)) {
    result.errors.push_back(d->object + ": " + d->message);
  }
  return result;
}

namespace {

/// signal+polarity, ordered so it can key a std::set.
using Edge = std::pair<std::string, bool>;

/// The input edge a 4-phase environment is *forced* to produce in
/// response to an emitted output edge: `c_r±` forces the matching ack
/// `c_a±`, and `c_a+` forces the return-to-zero `c_r-`.  The fourth
/// pairing — `c_a-` re-enabling `c_r+` — is deliberately excluded: the
/// falling ack only *permits* the next transaction, and the partner
/// starts it when its own program reaches that point, which a Burst-Mode
/// choice state is allowed to wait for.  Returns false for the excluded
/// pairing and for signals outside the `_r`/`_a` convention.
bool complement_input(const ch::Transition& out, Edge& in) {
  const std::string& s = out.signal;
  if (s.size() < 2 || s[s.size() - 2] != '_') return false;
  const char role = s.back();
  const std::string base = s.substr(0, s.size() - 2);
  if (role == 'r') {
    in = {base + "_a", out.rising};
    return true;
  }
  if (role == 'a' && out.rising) {
    in = {base + "_r", false};
    return true;
  }
  return false;
}

/// Sets of edges over the signal directory, one bitset per state: edge
/// code 2 * rank + rising (rank in name order), so ascending codes run in
/// std::set<Edge> order.
class EdgeSets {
 public:
  EdgeSets() = default;
  EdgeSets(std::size_t sets, std::size_t edges)
      : words_((edges + 63) / 64), bits_(sets * words_, 0) {}

  std::size_t words() const { return words_; }
  std::uint64_t* row(std::size_t set) { return bits_.data() + set * words_; }
  const std::uint64_t* row(std::size_t set) const {
    return bits_.data() + set * words_;
  }
  bool has(std::size_t set, std::size_t edge) const {
    return (row(set)[edge / 64] >> (edge % 64)) & 1;
  }
  void add(std::size_t set, std::size_t edge) {
    row(set)[edge / 64] |= std::uint64_t{1} << (edge % 64);
  }

 private:
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
};

/// Forward pending-edge fixpoint over the reachable states.
struct PendingAnalysis {
  /// The signal directory (Spec::is_input keys) by rank.
  std::vector<const std::string*> names;
  /// Edges pending at the state but consumed by no arc leaving it.
  EdgeSets stuck;
  /// Edges already pending when the state was entered (carried over from
  /// a predecessor rather than forced by the entering arc's own outputs).
  /// These race the handoff and every trigger of the state, so they are
  /// early-capable even when an arc from the state consumes them.
  EdgeSets carried;
  std::vector<bool> reachable;
  /// Per arc: the edge codes of its input burst, in burst order (-1 for
  /// a signal outside the directory; such an edge is never pending).
  std::vector<std::vector<int>> consumed;

  std::size_t num_edges() const { return 2 * names.size(); }
  Edge edge(std::size_t code) const {
    return {*names[code / 2], (code & 1) != 0};
  }
};

PendingAnalysis pending_analysis(const Spec& spec) {
  PendingAnalysis out;
  if (spec.num_states <= 0) return out;
  const std::size_t num_states = static_cast<std::size_t>(spec.num_states);
  for (const auto& entry : spec.is_input) out.names.push_back(&entry.first);
  const std::size_t num_edges = out.num_edges();
  // Edge code of (signal, rising), or -1 for a signal outside the
  // directory.
  const auto code_of = [&out](const std::string& signal, bool rising) {
    const auto it =
        std::lower_bound(out.names.begin(), out.names.end(), signal,
                         [](const std::string* name, const std::string& s) {
                           return *name < s;
                         });
    if (it == out.names.end() || **it != signal) return -1;
    return static_cast<int>(2 * (it - out.names.begin())) + (rising ? 1 : 0);
  };

  // Per arc: the edges its input burst consumes and the edges its output
  // burst forces, interned once.
  out.consumed.resize(spec.arcs.size());
  EdgeSets consumed(spec.arcs.size(), num_edges);
  EdgeSets forced(spec.arcs.size(), num_edges);
  for (std::size_t i = 0; i < spec.arcs.size(); ++i) {
    const Arc& arc = spec.arcs[i];
    for (const ch::Transition& t : arc.in_burst.transitions) {
      const int code = code_of(t.signal, t.rising);
      out.consumed[i].push_back(code);
      if (code >= 0) consumed.add(i, static_cast<std::size_t>(code));
    }
    for (const ch::Transition& t : arc.out_burst.transitions) {
      Edge enabled;
      if (!complement_input(t, enabled)) continue;
      const int code = code_of(enabled.first, enabled.second);
      if (code >= 0) forced.add(i, static_cast<std::size_t>(code));
    }
  }
  const auto index_of = [&spec](const Arc* arc) {
    return static_cast<std::size_t>(arc - spec.arcs.data());
  };
  const OutArcs out_arcs(spec);

  EdgeSets pending(num_states, num_edges);
  out.stuck = EdgeSets(num_states, num_edges);
  out.carried = EdgeSets(num_states, num_edges);
  out.reachable.assign(num_states, false);
  out.reachable[static_cast<std::size_t>(spec.initial_state)] = true;
  const std::size_t words = pending.words();

  std::deque<int> work{spec.initial_state};
  while (!work.empty()) {
    const int s = work.front();
    work.pop_front();
    for (const Arc* arc : out_arcs.from(s)) {
      // Survivors of the burst were pending before the arc fired and are
      // still pending after: carried into `to`.  Complements of the out
      // burst are freshly forced: pending, but on fundamental-mode timing
      // (the environment answers no faster than the feedback settles).
      const std::size_t ai = index_of(arc);
      const std::size_t to = static_cast<std::size_t>(arc->to);
      const std::uint64_t* from_pending =
          pending.row(static_cast<std::size_t>(s));
      std::uint64_t* to_pending = pending.row(to);
      std::uint64_t* to_carried = out.carried.row(to);
      bool grew = false;
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t survivors = from_pending[w] & ~consumed.row(ai)[w];
        const std::uint64_t next =
            to_pending[w] | survivors | forced.row(ai)[w];
        const std::uint64_t next_carried = to_carried[w] | survivors;
        grew = grew || next != to_pending[w] || next_carried != to_carried[w];
        to_pending[w] = next;
        to_carried[w] = next_carried;
      }
      if (!out.reachable[to] || grew) {
        out.reachable[to] = true;
        work.push_back(arc->to);
      }
    }
  }

  for (std::size_t s = 0; s < num_states; ++s) {
    std::uint64_t* stuck = out.stuck.row(s);
    if (!out.reachable[s]) {
      std::fill(out.carried.row(s), out.carried.row(s) + words, 0);
      continue;
    }
    std::copy(pending.row(s), pending.row(s) + words, stuck);
    for (const Arc* arc : out_arcs.from(static_cast<int>(s))) {
      for (std::size_t w = 0; w < words; ++w) {
        stuck[w] &= ~consumed.row(index_of(arc))[w];
      }
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> adjacency_violations(const Spec& spec) {
  const PendingAnalysis pa = pending_analysis(spec);
  if (pa.reachable.empty()) return {};
  const OutArcs out_arcs(spec);

  // One state of earliness is tolerated: an edge that arrives one burst
  // ahead of its consuming state is the ordinary input-burst overlap a
  // Burst-Mode implementation already absorbs.  The hazard is an edge
  // that can linger unconsumed across two consecutive states — the logic
  // then sits in a state whose cover never mentioned the edge, with
  // another full transition still to go (the fuzzer's gate-level witness
  // is a doubled handshake).
  std::vector<std::string> out;
  for (int s = 0; s < spec.num_states; ++s) {
    const std::size_t si = static_cast<std::size_t>(s);
    for (std::size_t e = 0; e < pa.num_edges(); ++e) {
      if (!pa.stuck.has(si, e)) continue;
      for (const Arc* arc : out_arcs.from(s)) {
        if (pa.stuck.has(static_cast<std::size_t>(arc->to), e)) {
          const Edge p = pa.edge(e);
          out.push_back("state " + std::to_string(s) +
                        ": pending input edge '" + p.first +
                        (p.second ? "+" : "-") +
                        "' is not consumed by any leaving arc and is still "
                        "unconsumed after " +
                        arc_name(*arc));
          break;
        }
      }
    }
  }

  // An arc whose whole input burst is early-capable has no compulsory
  // trigger: every consumed edge may already be on the wires when the
  // state is entered, so the implementation cannot pin the transition to
  // a freshly forced edge and fundamental mode gives it no timing anchor.
  for (int s = 0; s < spec.num_states; ++s) {
    const std::size_t si = static_cast<std::size_t>(s);
    if (!pa.reachable[si]) continue;
    for (const Arc* arc : out_arcs.from(s)) {
      if (arc->in_burst.transitions.empty()) continue;
      bool all_early = true;
      for (const int e :
           pa.consumed[static_cast<std::size_t>(arc - spec.arcs.data())]) {
        if (e < 0 || (!pa.stuck.has(si, static_cast<std::size_t>(e)) &&
                      !pa.carried.has(si, static_cast<std::size_t>(e)))) {
          all_early = false;
          break;
        }
      }
      if (all_early) {
        out.push_back("state " + std::to_string(s) + ": every input edge of " +
                      arc_name(*arc) +
                      " may arrive early; no compulsory trigger remains");
      }
    }
  }
  return out;
}

std::vector<std::set<std::pair<std::string, bool>>> early_edges(
    const Spec& spec) {
  const PendingAnalysis pa = pending_analysis(spec);
  std::vector<std::set<Edge>> out(pa.reachable.size());
  for (std::size_t s = 0; s < out.size(); ++s) {
    for (std::size_t e = 0; e < pa.num_edges(); ++e) {
      if (pa.stuck.has(s, e) || pa.carried.has(s, e)) {
        out[s].insert(pa.edge(e));
      }
    }
  }
  return out;
}

std::vector<std::set<std::string>> early_inputs(const Spec& spec) {
  const auto edges = early_edges(spec);
  std::vector<std::set<std::string>> out(edges.size());
  for (std::size_t s = 0; s < edges.size(); ++s) {
    for (const Edge& p : edges[s]) out[s].insert(p.first);
  }
  return out;
}

}  // namespace bb::bm
