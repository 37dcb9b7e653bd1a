// Deep Burst-Mode legality (AN001-AN004).
//
// bm::validate checks the *edge-sequential* reading of a specification
// (polarity alternation, literal burst containment, exact entry
// valuations).  The synthesized implementation, however, is
// level-sensitive two-level logic: a product term fires when its trigger
// signals reach their target LEVELS, regardless of which edges got them
// there.  These passes re-examine the machine under that reading:
//
//   AN001  entry-point uniqueness projected onto the signals a state's
//          outgoing arcs actually monitor.  BM006 compares whole
//          valuations; a conflict on a signal no arc reads is benign,
//          while a conflict on a monitored signal makes the same logic
//          term see different residual conditions depending on history.
//
//   AN002  level-sensitive distinguishability.  An input edge already at
//          its target level on state entry is pre-satisfied: the logic
//          only waits for the REMAINING edges.  Two sibling bursts that
//          are incomparable as edge sets can therefore collapse into
//          subset (or equal) residuals — the smaller arc fires while the
//          larger burst is still arriving, exactly the failure the
//          maximal set property exists to prevent.  Sharing one wire with
//          opposite polarities is flagged too: from a single entry
//          valuation only one polarity can occur, so the choice is
//          decided by the spec, not the environment.
//
//   AN003  output-burst consistency: an output edge whose wire is already
//          at the target level when the burst fires produces no
//          observable event (the environment waits forever), and
//          effectively-equal sibling triggers must drive equal responses.
//
//   AN004  dead or incomplete behaviour (warnings): an arc whose input
//          burst contains a pre-satisfied edge can never fire as
//          specified, and a wire used with a single polarity on a cycle
//          of the state graph can fire at most once over the machine's
//          lifetime.
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analyze/analyze.hpp"

namespace bb::analyze {

namespace {

using Valuation = std::map<std::string, bool>;

std::string arc_name(const bm::Arc& a) {
  return "arc " + std::to_string(a.from) + "->" + std::to_string(a.to);
}

std::string edge_name(const ch::Transition& t) {
  return t.signal + (t.rising ? "+" : "-");
}

/// Signal -> target level of an input burst's *effective* (still
/// toggling) edges, given the state's entry valuation.
std::map<std::string, bool> effective_burst(const bm::Burst& burst,
                                            const Valuation& entry) {
  std::map<std::string, bool> eff;
  for (const ch::Transition& t : burst.transitions) {
    const auto it = entry.find(t.signal);
    const bool current = it != entry.end() && it->second;
    if (current != t.rising) eff[t.signal] = t.rising;
  }
  return eff;
}

std::string burst_set_string(const std::map<std::string, bool>& eff) {
  std::string s = "{";
  bool first = true;
  for (const auto& [signal, rising] : eff) {
    if (!first) s += " ";
    first = false;
    s += signal + (rising ? "+" : "-");
  }
  return s + "}";
}

}  // namespace

lint::Report analyze_bm(const bm::Spec& spec,
                        const lint::LintOptions& options) {
  lint::Report report = lint::make_report(options);

  // Entry valuations by BFS from the initial state (all signals low), the
  // same traversal bm::validate uses, but keeping EVERY distinct
  // valuation a state is entered with instead of only the first.
  std::set<std::string> signals;
  for (const bm::Arc& a : spec.arcs) {
    for (const ch::Transition& t : a.in_burst.transitions) {
      signals.insert(t.signal);
    }
    for (const ch::Transition& t : a.out_burst.transitions) {
      signals.insert(t.signal);
    }
  }
  Valuation all_low;
  for (const std::string& s : signals) all_low[s] = false;

  const bm::OutArcs out_arcs(spec);
  std::map<int, std::vector<Valuation>> entries;
  std::deque<int> queue;
  entries[spec.initial_state].push_back(all_low);
  queue.push_back(spec.initial_state);
  while (!queue.empty()) {
    const int s = queue.front();
    queue.pop_front();
    // Propagate from the first (canonical) entry valuation only; extra
    // valuations are recorded for AN001 but not expanded, so the
    // traversal terminates on inconsistent machines too.
    const Valuation& entry = entries[s].front();
    for (const bm::Arc* a : out_arcs.from(s)) {
      Valuation vals = entry;
      for (const ch::Transition& t : a->in_burst.transitions) {
        vals[t.signal] = t.rising;
      }
      for (const ch::Transition& t : a->out_burst.transitions) {
        vals[t.signal] = t.rising;
      }
      auto& dest = entries[a->to];
      const bool first_visit = dest.empty();
      bool known = false;
      for (const Valuation& v : dest) known = known || v == vals;
      if (!known) dest.push_back(std::move(vals));
      if (first_visit) queue.push_back(a->to);
    }
  }

  // AN001: conflicting entry valuations of *monitored* signals.
  for (const auto& [state, vals] : entries) {
    if (vals.size() < 2) continue;
    std::set<std::string> monitored;
    for (const bm::Arc* a : out_arcs.from(state)) {
      for (const ch::Transition& t : a->in_burst.transitions) {
        monitored.insert(t.signal);
      }
    }
    std::set<std::string> conflicting;
    for (const std::string& sig : monitored) {
      const auto it0 = vals.front().find(sig);
      const bool v0 = it0 != vals.front().end() && it0->second;
      for (std::size_t i = 1; i < vals.size(); ++i) {
        const auto it = vals[i].find(sig);
        const bool vi = it != vals[i].end() && it->second;
        if (vi != v0) conflicting.insert(sig);
      }
    }
    if (conflicting.empty()) continue;
    std::string who;
    for (const std::string& sig : conflicting) {
      if (!who.empty()) who += ", ";
      who += sig;
    }
    report.add("AN001", "state " + std::to_string(state),
               "entered with " + std::to_string(vals.size()) +
                   " distinct valuations that disagree on monitored "
                   "signal(s) " + who +
                   "; the state's trigger terms see different residual "
                   "conditions depending on how it was reached "
                   "(fundamental-mode entry points must be unique)");
  }

  // Per-state checks against the canonical entry valuation.
  for (const auto& [state, vals] : entries) {
    const Valuation& entry = vals.front();
    const auto& arcs = out_arcs.from(state);

    struct Effective {
      const bm::Arc* arc;
      std::map<std::string, bool> burst;
    };
    std::vector<Effective> eff;
    for (const bm::Arc* a : arcs) {
      auto e = effective_burst(a->in_burst, entry);

      // AN004: pre-satisfied trigger edges make the arc unfireable as an
      // edge sequence (and AN002 below reports any level-sensitive
      // early-firing hazard the residual creates).
      if (e.size() < a->in_burst.size()) {
        std::string dead;
        for (const ch::Transition& t : a->in_burst.transitions) {
          if (e.count(t.signal)) continue;
          if (!dead.empty()) dead += ", ";
          dead += edge_name(t);
        }
        report.add("AN004", arc_name(*a),
                   "input edge(s) " + dead +
                       " are already at their target level when state " +
                       std::to_string(state) +
                       " is entered; the specified edge(s) can never occur "
                       "and the arc cannot fire as written");
      }
      eff.push_back(Effective{a, std::move(e)});
    }

    for (std::size_t i = 0; i < eff.size(); ++i) {
      for (std::size_t j = i + 1; j < eff.size(); ++j) {
        const auto& bi = eff[i].burst;
        const auto& bj = eff[j].burst;

        // AN002: one wire, opposite polarities across siblings.
        for (const auto& [signal, rising] : bi) {
          const auto it = bj.find(signal);
          if (it != bj.end() && it->second != rising) {
            report.add("AN002", "state " + std::to_string(state),
                       arc_name(*eff[i].arc) + " waits for " + signal +
                           (rising ? "+" : "-") + " while " +
                           arc_name(*eff[j].arc) + " waits for " + signal +
                           (it->second ? "+" : "-") +
                           "; from one entry valuation only one polarity "
                           "can occur, so the choice is predetermined");
          }
        }

        const auto subset = [](const std::map<std::string, bool>& a,
                               const std::map<std::string, bool>& b) {
          for (const auto& [signal, rising] : a) {
            const auto it = b.find(signal);
            if (it == b.end() || it->second != rising) return false;
          }
          return true;
        };
        const bool i_in_j = subset(bi, bj);
        const bool j_in_i = subset(bj, bi);
        if (i_in_j && j_in_i) {
          // Effectively equal triggers: the logic cannot tell the arcs
          // apart, so diverging responses are a contradiction (AN003)
          // and equal responses a redundancy (AN002).
          const bool same_response =
              eff[i].arc->to == eff[j].arc->to &&
              eff[i].arc->out_burst == eff[j].arc->out_burst;
          report.add(same_response ? "AN002" : "AN003",
                     "state " + std::to_string(state),
                     arc_name(*eff[i].arc) + " and " + arc_name(*eff[j].arc) +
                         " have the same effective trigger " +
                         burst_set_string(bi) +
                         (same_response
                              ? "; the arcs are indistinguishable duplicates"
                              : " but diverging responses; the "
                                "level-sensitive logic cannot implement "
                                "both"));
        } else if (i_in_j || j_in_i) {
          const Effective& small = i_in_j ? eff[i] : eff[j];
          const Effective& large = i_in_j ? eff[j] : eff[i];
          report.add("AN002", "state " + std::to_string(state),
                     "effective trigger " + burst_set_string(small.burst) +
                         " of " + arc_name(*small.arc) +
                         " is contained in " +
                         burst_set_string(large.burst) + " of " +
                         arc_name(*large.arc) +
                         "; with pre-satisfied edges discounted, the "
                         "smaller arc fires while the larger burst is "
                         "still arriving (level-sensitive maximal set "
                         "violation)");
        }
      }
    }

    // AN003: output edges that do not toggle at their firing point.
    for (const bm::Arc* a : arcs) {
      Valuation fired = entry;
      for (const ch::Transition& t : a->in_burst.transitions) {
        fired[t.signal] = t.rising;
      }
      for (const ch::Transition& t : a->out_burst.transitions) {
        const auto it = fired.find(t.signal);
        const bool current = it != fired.end() && it->second;
        if (current == t.rising) {
          report.add("AN003", arc_name(*a),
                     "output edge " + edge_name(t) + " fires while '" +
                         t.signal + "' is already " + (current ? "1" : "0") +
                         "; the environment observes no event and the "
                         "handshake stalls");
        }
      }
    }
  }

  // AN004: single-polarity wires on cycles.  A wire that only ever rises
  // (or only falls) can fire at most once, so any cyclic behaviour that
  // includes it stalls on the second lap.  Find states on cycles first
  // (a state is on a cycle iff it reaches itself through at least one
  // arc).
  std::map<int, std::vector<int>> succ;
  for (const bm::Arc& a : spec.arcs) succ[a.from].push_back(a.to);
  const auto on_cycle = [&](int s) {
    std::set<int> seen;
    std::deque<int> work(succ[s].begin(), succ[s].end());
    while (!work.empty()) {
      const int v = work.front();
      work.pop_front();
      if (v == s) return true;
      if (!seen.insert(v).second) continue;
      for (const int n : succ[v]) work.push_back(n);
    }
    return false;
  };
  std::map<std::string, std::pair<bool, bool>> polarity;  // rising/falling
  std::map<std::string, bool> cyclic_use;
  for (const bm::Arc& a : spec.arcs) {
    if (!entries.count(a.from)) continue;  // unreachable: BM007 territory
    const bool cyc = on_cycle(a.from) && on_cycle(a.to);
    const auto use = [&](const ch::Transition& t) {
      auto& [rise, fall] = polarity[t.signal];
      (t.rising ? rise : fall) = true;
      if (cyc) cyclic_use[t.signal] = true;
    };
    for (const ch::Transition& t : a.in_burst.transitions) use(t);
    for (const ch::Transition& t : a.out_burst.transitions) use(t);
  }
  for (const auto& [signal, pol] : polarity) {
    if (pol.first && pol.second) continue;
    if (!cyclic_use[signal]) continue;
    report.add("AN004", "signal '" + signal + "'",
               std::string("only ever ") +
                   (pol.first ? "rises" : "falls") +
                   " yet is used on a cycle of the state graph; after one "
                   "traversal the wire is stuck and every later lap "
                   "repeats an impossible edge");
  }

  return report;
}

}  // namespace bb::analyze
