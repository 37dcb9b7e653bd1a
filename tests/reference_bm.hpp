// Reference forms of the Burst-Mode kernels for differential tests: the
// copying CH expansion, the straightforward CH-to-BMS builder, validator
// and pending-edge analysis (adjacency violations, early edges) and the
// clusterer's merge check built on them, which the production kernels
// (src/ch, src/bm, src/opt) replaced with move-based and interned-signal
// versions.
// They build strings and copy name-keyed maps freely, which makes them
// slow and easy to audit.  Tests assert that the production kernels give
// the same `.bms` text, the same validation report and the same
// adjacency list on every machine they check.
#pragma once

#include <deque>
#include <initializer_list>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/bm/spec.hpp"
#include "src/bm/validate.hpp"
#include "src/ch/ast.hpp"
#include "src/ch/expansion.hpp"
#include "src/lint/diag.hpp"
#include "src/util/strings.hpp"

namespace bb::bm::reference {

namespace detail {

using ch::Item;
using ch::ItemSeq;
using ch::Transition;

/// Arcs leaving `state`, by a scan of every arc.
inline std::vector<const Arc*> arcs_from(const Spec& spec, int state) {
  std::vector<const Arc*> out;
  for (const Arc& a : spec.arcs) {
    if (a.from == state) out.push_back(&a);
  }
  return out;
}

/// The CH expansion (Table 2), copying item sequences at every level.
/// Label numbering and error texts are the production expansion's.
struct ExpandContext {
  int next_label = 0;
  std::vector<std::string> loop_end_labels;

  std::string fresh_label(const std::string& stem) {
    return stem + std::to_string(next_label++);
  }
};

inline Transition tr(bool is_input, std::string signal, bool rising) {
  return Transition{is_input, std::move(signal), rising};
}

inline ItemSeq concat(std::initializer_list<const ItemSeq*> seqs) {
  ItemSeq out;
  for (const ItemSeq* s : seqs) out.insert(out.end(), s->begin(), s->end());
  return out;
}

inline ch::Expansion combine(ch::ExprKind op, const ch::Expansion& a,
                             const ch::Expansion& b) {
  using ch::Activity;
  using ch::ExprKind;
  const ItemSeq& a1 = a.events[0];
  const ItemSeq& a2 = a.events[1];
  const ItemSeq& a3 = a.events[2];
  const ItemSeq& a4 = a.events[3];
  const ItemSeq& b1 = b.events[0];
  const ItemSeq& b2 = b.events[1];
  const ItemSeq& b3 = b.events[2];
  const ItemSeq& b4 = b.events[3];
  const ItemSeq b_all = b.flatten();

  ch::Expansion out;
  out.activity = a.activity != Activity::kNeither ? a.activity : b.activity;
  switch (op) {
    case ExprKind::kEncEarly:
      if (a.activity == Activity::kActive) {
        out.events = {a1, concat({&a2, &b_all}), a3, a4};
      } else {
        out.events = {concat({&a1, &b_all}), a2, a3, a4};
      }
      break;
    case ExprKind::kEncLate:
      out.events = {a1, a2, a3, concat({&b_all, &a4})};
      break;
    case ExprKind::kEncMiddle:
      out.events = {concat({&a1, &b1}), concat({&b2, &a2}),
                    concat({&a3, &b3}), concat({&b4, &a4})};
      break;
    case ExprKind::kSeq:
      out.events = {concat({&a1, &a2, &a3, &a4, &b1}), b2, b3, b4};
      break;
    case ExprKind::kSeqOv:
      out.events = {concat({&a1, &a2}), concat({&b1, &b2}),
                    concat({&a3, &a4}), concat({&b3, &b4})};
      out.activity = Activity::kActive;
      break;
    case ExprKind::kMutex:
      out.events[0].push_back(Item::make_choice({a.flatten(), b_all}));
      out.activity = Activity::kPassive;
      break;
    default:
      throw std::logic_error("combine: not an interleaving operator");
  }
  return out;
}

inline void check_legal(ch::ExprKind op, const ch::Expansion& a,
                        const ch::Expansion& b) {
  if (!ch::is_bm_aware(op, a.activity, b.activity)) {
    throw ch::BmAwareError(std::string("illegal Burst-Mode combination: (") +
                           std::string(ch::kind_keyword(op)) + " " +
                           std::string(ch::activity_name(a.activity)) + " " +
                           std::string(ch::activity_name(b.activity)) + ")");
  }
}

inline ch::Expansion expand_rec(const ch::Expr& e, ExpandContext& ctx);

inline ch::Expansion expand_ptop(const ch::Expr& e) {
  ch::Expansion out;
  out.activity = e.declared_activity;
  const std::string p = util::to_lower(e.channel);
  const bool active = e.declared_activity == ch::Activity::kActive;
  // Active:  [(o r+)] [(i a+)] [(o r-)] [(i a-)]
  // Passive: [(i r+)] [(o a+)] [(i r-)] [(o a-)]
  out.events[0].push_back(Item::make(tr(!active, p + "_r", true)));
  out.events[1].push_back(Item::make(tr(active, p + "_a", true)));
  out.events[2].push_back(Item::make(tr(!active, p + "_r", false)));
  out.events[3].push_back(Item::make(tr(active, p + "_a", false)));
  return out;
}

inline ch::Expansion expand_mult_ack(const ch::Expr& e) {
  // One request wire, n synchronized acknowledge wires.
  ch::Expansion out;
  out.activity = e.declared_activity;
  const std::string p = util::to_lower(e.channel);
  const bool active = e.declared_activity == ch::Activity::kActive;
  out.events[0].push_back(Item::make(tr(!active, p + "_r", true)));
  for (int i = 1; i <= e.wires; ++i) {
    out.events[1].push_back(
        Item::make(tr(active, p + "_a" + std::to_string(i), true)));
  }
  out.events[2].push_back(Item::make(tr(!active, p + "_r", false)));
  for (int i = 1; i <= e.wires; ++i) {
    out.events[3].push_back(
        Item::make(tr(active, p + "_a" + std::to_string(i), false)));
  }
  return out;
}

inline ch::Expansion expand_mult_req(const ch::Expr& e) {
  // n synchronized request wires, one acknowledge wire.
  ch::Expansion out;
  out.activity = e.declared_activity;
  const std::string p = util::to_lower(e.channel);
  const bool active = e.declared_activity == ch::Activity::kActive;
  for (int i = 1; i <= e.wires; ++i) {
    out.events[0].push_back(
        Item::make(tr(!active, p + "_r" + std::to_string(i), true)));
  }
  out.events[1].push_back(Item::make(tr(active, p + "_a", true)));
  for (int i = 1; i <= e.wires; ++i) {
    out.events[2].push_back(
        Item::make(tr(!active, p + "_r" + std::to_string(i), false)));
  }
  out.events[3].push_back(Item::make(tr(active, p + "_a", false)));
  return out;
}

inline ch::Expansion expand_mux_ack(const ch::Expr& e, ExpandContext& ctx) {
  // Always active: the controller raises the request, the environment
  // answers on exactly one acknowledge wire, selecting a guarded branch.
  ch::Expansion out;
  out.activity = ch::Activity::kActive;
  const std::string p = util::to_lower(e.channel);

  std::vector<ItemSeq> alternatives;
  int index = 0;
  for (const ch::MuxBranch& branch : e.branches) {
    ++index;
    // The branch's share of the mux handshake (an active stub):
    //   [] [(i a_ai+)] [(o a_r-)] [(i a_ai-)]
    ch::Expansion share;
    share.activity = ch::Activity::kActive;
    const std::string ack = p + "_a" + std::to_string(index);
    share.events[1].push_back(Item::make(tr(true, ack, true)));
    share.events[2].push_back(Item::make(tr(false, p + "_r", false)));
    share.events[3].push_back(Item::make(tr(true, ack, false)));

    const ch::Expansion body = expand_rec(*branch.body, ctx);
    check_legal(branch.op, share, body);
    alternatives.push_back(combine(branch.op, share, body).flatten());
  }
  out.events[0].push_back(Item::make(tr(false, p + "_r", true)));
  out.events[0].push_back(Item::make_choice(std::move(alternatives)));
  return out;
}

inline ch::Expansion expand_mux_req(const ch::Expr& e, ExpandContext& ctx) {
  // Always passive: exactly one request wire fires, selecting a branch.
  ch::Expansion out;
  out.activity = ch::Activity::kPassive;
  const std::string p = util::to_lower(e.channel);

  std::vector<ItemSeq> alternatives;
  int index = 0;
  for (const ch::MuxBranch& branch : e.branches) {
    ++index;
    // The branch's share:  [(i a_ri+)] [(o a_a+)] [(i a_ri-)] [(o a_a-)]
    ch::Expansion share;
    share.activity = ch::Activity::kPassive;
    const std::string req = p + "_r" + std::to_string(index);
    share.events[0].push_back(Item::make(tr(true, req, true)));
    share.events[1].push_back(Item::make(tr(false, p + "_a", true)));
    share.events[2].push_back(Item::make(tr(true, req, false)));
    share.events[3].push_back(Item::make(tr(false, p + "_a", false)));

    const ch::Expansion body = expand_rec(*branch.body, ctx);
    check_legal(branch.op, share, body);
    alternatives.push_back(combine(branch.op, share, body).flatten());
  }
  out.events[0].push_back(Item::make_choice(std::move(alternatives)));
  return out;
}

inline ch::Expansion expand_rec(const ch::Expr& e, ExpandContext& ctx) {
  using ch::ExprKind;
  switch (e.kind) {
    case ExprKind::kPToP:
      return expand_ptop(e);
    case ExprKind::kMultAck:
      return expand_mult_ack(e);
    case ExprKind::kMultReq:
      return expand_mult_req(e);
    case ExprKind::kMuxAck:
      return expand_mux_ack(e, ctx);
    case ExprKind::kMuxReq:
      return expand_mux_req(e, ctx);
    case ExprKind::kVoid:
      return ch::Expansion{};
    case ExprKind::kVerb: {
      ch::Expansion out;
      out.activity = ch::activity_of(e);
      for (std::size_t i = 0; i < 4; ++i) {
        for (const Transition& t : e.verb_events[i]) {
          out.events[i].push_back(Item::make(t));
        }
      }
      return out;
    }
    case ExprKind::kRep: {
      const std::string start = ctx.fresh_label("L");
      const std::string end = ctx.fresh_label("E");
      ctx.loop_end_labels.push_back(end);
      const ch::Expansion body = expand_rec(*e.args.at(0), ctx);
      ctx.loop_end_labels.pop_back();
      ch::Expansion out;
      out.activity = body.activity;
      ItemSeq& ev = out.events[0];
      ev.push_back(Item::make_label(start));
      const ItemSeq flat = body.flatten();
      ev.insert(ev.end(), flat.begin(), flat.end());
      ev.push_back(Item::make_goto(start));
      ev.push_back(Item::make_label(end));
      return out;
    }
    case ExprKind::kBreak: {
      if (ctx.loop_end_labels.empty()) {
        throw std::logic_error("CH: (break) outside of any (rep ...)");
      }
      ch::Expansion out;
      out.events[0].push_back(Item::make_bgoto(ctx.loop_end_labels.back()));
      return out;
    }
    case ExprKind::kEncEarly:
    case ExprKind::kEncMiddle:
    case ExprKind::kEncLate:
    case ExprKind::kSeq:
    case ExprKind::kSeqOv:
    case ExprKind::kMutex: {
      const ch::Expansion a = expand_rec(*e.args.at(0), ctx);
      const ch::Expansion b = expand_rec(*e.args.at(1), ctx);
      check_legal(e.kind, a, b);
      return combine(e.kind, a, b);
    }
  }
  throw std::logic_error("expand: unknown expression kind");
}

/// State-graph builder with union-find state aliasing.
///
/// Labels are *deferred*: a label encountered mid-stream stays pending
/// until the next burst boundary (input transition, choice, goto or end of
/// stream).  Outputs emitted between a label and its boundary form the
/// label's "prefix": on re-entry via goto, those outputs ride the back-edge
/// arc (a loop whose body begins with an output, e.g. a rep around a
/// mux-ack, needs this to keep every input burst non-empty).
class Builder {
 public:
  Spec build(const ItemSeq& items, const std::string& name) {
    spec_.name = name;
    const int start = new_state();
    Cursor init;
    init.state = start;
    auto ends = run(items, 0, init);
    // Close trailing bursts of terminating behaviours into final states.
    for (Cursor& end : ends) {
      if (!end.reachable) continue;
      std::vector<PendingLabel> pending = std::move(end.pending);
      if (!end.in.empty() || !end.out.empty() || end.resurrected) {
        close_boundary(end, pending);
      } else {
        bind_pending(pending, end.state);
      }
    }
    finalize(start);
    return std::move(spec_);
  }

 private:
  struct PendingLabel {
    std::string label;
    std::vector<Transition> prefix;  // outputs seen since the label
  };

  struct Cursor {
    int state = -1;
    std::vector<Transition> in;
    std::vector<Transition> out;
    bool reachable = true;
    /// Label this cursor was resurrected at (after an unreachable region);
    /// outputs accumulated before the first boundary are that label's
    /// prefix and are delivered by incoming arcs, not re-emitted.
    bool resurrected = false;
    /// Labels awaiting their binding boundary; carried across the end of a
    /// choice alternative into the continuation.
    std::vector<PendingLabel> pending;
  };

  struct RawArc {
    int from = 0;
    int to = 0;
    Burst in, out;
    std::string append_prefix_of;  // goto arcs: label whose prefix to append
  };

  // --- union-find over states ---
  int new_state() {
    parent_.push_back(static_cast<int>(parent_.size()));
    return parent_.back();
  }
  int find(int s) {
    while (parent_[s] != s) {
      parent_[s] = parent_[parent_[s]];
      s = parent_[s];
    }
    return s;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[b] = a;
  }

  int state_for_label(const std::string& label) {
    const auto it = label_state_.find(label);
    if (it != label_state_.end()) return find(it->second);
    const int s = new_state();
    label_state_[label] = s;
    return s;
  }

  void record_prefix(const std::string& label,
                     std::vector<Transition> prefix) {
    label_prefix_[label] = std::move(prefix);
  }

  /// Binds all pending labels to `state` and clears the pending list.
  void bind_pending(std::vector<PendingLabel>& pending, int state) {
    for (PendingLabel& p : pending) {
      record_prefix(p.label, std::move(p.prefix));
      const auto it = label_state_.find(p.label);
      if (it != label_state_.end()) {
        unite(state, it->second);  // placeholder from a forward bgoto
      } else {
        label_state_[p.label] = state;
      }
    }
    pending.clear();
  }

  void emit_arc(int from, int to, Burst in, Burst out,
                std::string append_prefix_of = "") {
    RawArc a;
    a.from = from;
    a.to = to;
    a.in = std::move(in);
    a.out = std::move(out);
    a.append_prefix_of = std::move(append_prefix_of);
    arcs_.push_back(std::move(a));
  }

  /// Closes the current arc at a burst boundary, binding pending labels.
  /// Returns the state the cursor continues from.
  void close_boundary(Cursor& cur, std::vector<PendingLabel>& pending) {
    if (cur.resurrected) {
      // Outputs accumulated since resurrection equal the resurrect label's
      // prefix; they are delivered by the arcs that enter this state.
      cur.in.clear();
      cur.out.clear();
      cur.resurrected = false;
      bind_pending(pending, cur.state);
      return;
    }
    if (cur.in.empty() && cur.out.empty()) {
      bind_pending(pending, cur.state);
      return;
    }
    const int next = new_state();
    emit_arc(cur.state, next, Burst{cur.in}, Burst{cur.out});
    cur.state = next;
    cur.in.clear();
    cur.out.clear();
    bind_pending(pending, next);
  }

  /// Processes items[idx..]; returns the cursors at every end of control
  /// flow (choice alternatives fan out).
  std::vector<Cursor> run(const ItemSeq& items, std::size_t idx, Cursor cur) {
    std::vector<PendingLabel> pending = std::move(cur.pending);
    cur.pending.clear();
    for (std::size_t i = idx; i < items.size(); ++i) {
      const Item& item = items[i];
      switch (item.kind) {
        case Item::Kind::kTransition: {
          if (!cur.reachable) break;
          const Transition& t = item.transition;
          if (t.is_input) {
            if (!cur.out.empty() || !pending.empty() || cur.resurrected) {
              close_boundary(cur, pending);
            }
            cur.in.push_back(t);
          } else {
            cur.out.push_back(t);
            for (PendingLabel& p : pending) p.prefix.push_back(t);
          }
          break;
        }
        case Item::Kind::kLabel: {
          if (!cur.reachable) {
            // Resurrect only if some break referenced this label.
            const auto it = label_state_.find(item.label);
            if (it != label_state_.end()) {
              cur = Cursor{};
              cur.state = find(it->second);
              cur.resurrected = true;
              pending.push_back(PendingLabel{item.label, {}});
            }
            break;
          }
          pending.push_back(PendingLabel{item.label, {}});
          break;
        }
        case Item::Kind::kGoto:
        case Item::Kind::kBGoto: {
          if (!cur.reachable) break;
          const int target = state_for_label(item.label);
          bind_pending(pending, target);
          if (cur.resurrected || (cur.in.empty() && cur.out.empty())) {
            unite(target, cur.state);
          } else {
            emit_arc(cur.state, target, Burst{cur.in}, Burst{cur.out},
                     item.label);
          }
          cur.reachable = false;
          cur.in.clear();
          cur.out.clear();
          cur.resurrected = false;
          break;
        }
        case Item::Kind::kChoice: {
          if (!cur.reachable) break;
          // A pending input burst with no outputs joins each alternative's
          // first burst (Fig. 4: "a1_r+ i1_r+ / o1_r+"); pending outputs
          // must close into an arc that enters the decision state.
          if (!cur.out.empty() || cur.resurrected) {
            close_boundary(cur, pending);
          } else {
            bind_pending(pending, cur.state);
          }
          std::vector<Cursor> ends;
          for (const ItemSeq& alt : item.alternatives) {
            Cursor branch;
            branch.state = cur.state;
            branch.in = cur.in;  // propagate the pending input burst
            branch.pending = pending;
            auto branch_ends = run(alt, 0, branch);
            ends.insert(ends.end(),
                        std::make_move_iterator(branch_ends.begin()),
                        std::make_move_iterator(branch_ends.end()));
          }
          // Continue the remaining items independently from each end.
          std::vector<Cursor> results;
          for (Cursor& e : ends) {
            auto sub = run(items, i + 1, std::move(e));
            results.insert(results.end(),
                           std::make_move_iterator(sub.begin()),
                           std::make_move_iterator(sub.end()));
          }
          return results;
        }
      }
    }
    // End of this item stream: hand open bursts and pending labels back to
    // the caller (the continuation after a choice, or finalize()).
    cur.pending = std::move(pending);
    return {std::move(cur)};
  }

  /// Resolves aliases, appends goto prefixes, renumbers reachable states
  /// breadth-first from the initial state, and dedupes arcs.
  void finalize(int start) {
    for (RawArc& a : arcs_) {
      a.from = find(a.from);
      a.to = find(a.to);
      if (!a.append_prefix_of.empty()) {
        const auto it = label_prefix_.find(a.append_prefix_of);
        if (it != label_prefix_.end()) {
          for (const Transition& t : it->second) {
            a.out.transitions.push_back(t);
          }
        }
      }
    }

    // BFS renumbering from the initial state.
    std::map<int, int> number;
    std::deque<int> queue;
    const int init = find(start);
    number[init] = 0;
    queue.push_back(init);
    while (!queue.empty()) {
      const int s = queue.front();
      queue.pop_front();
      for (const RawArc& a : arcs_) {
        if (a.from == s && !number.count(a.to)) {
          number[a.to] = static_cast<int>(number.size());
          queue.push_back(a.to);
        }
      }
    }

    spec_.initial_state = 0;
    spec_.num_states = static_cast<int>(number.size());
    std::set<std::string> seen;
    for (RawArc& a : arcs_) {
      if (!number.count(a.from)) continue;  // unreachable
      Arc out;
      out.from = number[a.from];
      out.to = number[a.to];
      out.in_burst = std::move(a.in);
      out.out_burst = std::move(a.out);
      out.in_burst.normalize();
      out.out_burst.normalize();
      const std::string key = std::to_string(out.from) + ">" +
                              std::to_string(out.to) + ":" +
                              out.in_burst.to_string() + "|" +
                              out.out_burst.to_string();
      if (!seen.insert(key).second) continue;  // duplicate arc
      for (const Transition& t : out.in_burst.transitions) {
        spec_.is_input[t.signal] = true;
      }
      for (const Transition& t : out.out_burst.transitions) {
        spec_.is_input[t.signal] = false;
      }
      spec_.arcs.push_back(std::move(out));
    }
  }

  Spec spec_;
  std::vector<int> parent_;
  std::vector<RawArc> arcs_;
  std::map<std::string, int> label_state_;
  std::map<std::string, std::vector<Transition>> label_prefix_;
};

using Valuation = std::map<std::string, bool>;

inline std::string arc_name(const Arc& a) {
  return "arc " + std::to_string(a.from) + "->" + std::to_string(a.to);
}

inline std::string edge_name(const ch::Transition& t) {
  return t.signal + (t.rising ? "+" : "-");
}

inline std::string valuation_string(const Valuation& vals) {
  std::string s = "{";
  bool first = true;
  for (const auto& [signal, value] : vals) {
    if (!first) s += " ";
    first = false;
    s += signal + "=" + (value ? "1" : "0");
  }
  return s + "}";
}

/// Applies a burst to a valuation, reporting BM005 for every edge that
/// does not alternate.  Returns false when a violation was found.
inline bool apply_burst(const Burst& burst, Valuation& vals, const Arc& arc,
                 const char* which, lint::Report& report) {
  bool clean = true;
  for (const ch::Transition& t : burst.transitions) {
    const bool current = vals.count(t.signal) ? vals[t.signal] : false;
    if (current == t.rising) {
      report.add("BM005", arc_name(arc),
                 std::string(which) + " burst repeats edge '" + edge_name(t) +
                     "' while '" + t.signal + "' is already " +
                     (current ? "1" : "0") + "; along every path a wire must "
                     "strictly alternate rising and falling edges (entered "
                     "with valuation " + valuation_string(vals) + ")");
      clean = false;
      continue;
    }
    vals[t.signal] = t.rising;
  }
  return clean;
}

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
inline bool complement_input(const ch::Transition& out, Edge& in) {
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

/// Forward pending-edge fixpoint over the reachable states.
struct PendingAnalysis {
  /// Edges pending at the state but consumed by no arc leaving it.
  std::vector<std::set<Edge>> stuck;
  /// Edges already pending when the state was entered (carried over from
  /// a predecessor rather than forced by the entering arc's own outputs).
  /// These race the handoff and every trigger of the state, so they are
  /// early-capable even when an arc from the state consumes them.
  std::vector<std::set<Edge>> carried;
  std::vector<bool> reachable;
};

inline PendingAnalysis pending_analysis(const Spec& spec) {
  PendingAnalysis out;
  if (spec.num_states <= 0) return out;
  std::vector<std::set<Edge>> pending(
      static_cast<std::size_t>(spec.num_states));
  out.stuck.resize(static_cast<std::size_t>(spec.num_states));
  out.carried.resize(static_cast<std::size_t>(spec.num_states));
  out.reachable.assign(static_cast<std::size_t>(spec.num_states), false);
  out.reachable[static_cast<std::size_t>(spec.initial_state)] = true;

  std::deque<int> work{spec.initial_state};
  while (!work.empty()) {
    const int s = work.front();
    work.pop_front();
    for (const Arc* arc : arcs_from(spec, s)) {
      // Survivors of the burst were pending before the arc fired and are
      // still pending after: carried into `to`.  Complements of the out
      // burst are freshly forced: pending, but on fundamental-mode timing
      // (the environment answers no faster than the feedback settles).
      std::set<Edge> survivors = pending[static_cast<std::size_t>(s)];
      for (const ch::Transition& t : arc->in_burst.transitions) {
        survivors.erase({t.signal, t.rising});
      }
      std::set<Edge> next = survivors;
      for (const ch::Transition& t : arc->out_burst.transitions) {
        Edge enabled;
        if (!complement_input(t, enabled) ||
            !spec.is_input.count(enabled.first)) {
          continue;
        }
        next.insert(enabled);
      }
      std::set<Edge>& to = pending[static_cast<std::size_t>(arc->to)];
      std::set<Edge>& to_carried = out.carried[static_cast<std::size_t>(arc->to)];
      const std::size_t before = to.size();
      const std::size_t before_carried = to_carried.size();
      to.insert(next.begin(), next.end());
      to_carried.insert(survivors.begin(), survivors.end());
      if (!out.reachable[static_cast<std::size_t>(arc->to)] ||
          to.size() != before || to_carried.size() != before_carried) {
        out.reachable[static_cast<std::size_t>(arc->to)] = true;
        work.push_back(arc->to);
      }
    }
  }

  const auto consumable = [&spec](int s, const Edge& p) {
    for (const Arc* arc : arcs_from(spec, s)) {
      for (const ch::Transition& t : arc->in_burst.transitions) {
        if (t.signal == p.first && t.rising == p.second) return true;
      }
    }
    return false;
  };
  for (int s = 0; s < spec.num_states; ++s) {
    if (!out.reachable[static_cast<std::size_t>(s)]) {
      out.carried[static_cast<std::size_t>(s)].clear();
      continue;
    }
    for (const Edge& p : pending[static_cast<std::size_t>(s)]) {
      if (!consumable(s, p)) out.stuck[static_cast<std::size_t>(s)].insert(p);
    }
  }
  return out;
}

}  // namespace detail

using detail::apply_burst;
using detail::arc_name;
using detail::arcs_from;
using detail::Edge;
using detail::PendingAnalysis;
using detail::pending_analysis;
using detail::valuation_string;
using detail::Valuation;

/// Compiles a CH expression the reference way: the copying expansion,
/// then the reference builder.
inline Spec compile(const ch::Expr& expr, const std::string& name = "") {
  detail::ExpandContext ctx;
  detail::Builder builder;
  return builder.build(detail::expand_rec(expr, ctx).flatten(), name);
}

inline ValidationResult validate(const Spec& spec) {
  ValidationResult result;
  lint::Report& report = result.report;

  // 1. Direction consistency (BM001).  Remember the first arc that used
  // each signal in each direction so the message names both witnesses.
  struct DirUse {
    bool is_input = false;
    const Arc* first_use = nullptr;
  };
  std::map<std::string, DirUse> direction;
  std::set<std::string> reported_bidi;
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
  };
  for (const Arc& a : spec.arcs) {
    for (const ch::Transition& t : a.in_burst.transitions) {
      use_signal(t, /*as_input=*/true, a);
    }
    for (const ch::Transition& t : a.out_burst.transitions) {
      use_signal(t, /*as_input=*/false, a);
    }
  }

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
  for (int s = 0; s < spec.num_states; ++s) {
    const auto arcs = arcs_from(spec, s);
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      for (std::size_t j = 0; j < arcs.size(); ++j) {
        if (i == j) continue;
        const Burst& bi = arcs[i]->in_burst;
        const Burst& bj = arcs[j]->in_burst;
        if (bi == bj) {
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
        if (bj.contains(bi)) {
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
  std::map<int, Valuation> state_vals;
  std::deque<int> queue;
  Valuation all_low;
  for (const auto& entry : direction) all_low[entry.first] = false;
  state_vals[spec.initial_state] = std::move(all_low);
  queue.push_back(spec.initial_state);
  while (!queue.empty()) {
    const int s = queue.front();
    queue.pop_front();
    for (const Arc* a : arcs_from(spec, s)) {
      Valuation vals = state_vals[s];
      if (!apply_burst(a->in_burst, vals, *a, "input", report)) continue;
      if (!apply_burst(a->out_burst, vals, *a, "output", report)) continue;
      const auto it = state_vals.find(a->to);
      if (it == state_vals.end()) {
        state_vals[a->to] = std::move(vals);
        queue.push_back(a->to);
      } else if (it->second != vals) {
        std::string differing;
        for (const auto& [signal, value] : vals) {
          const auto prev = it->second.find(signal);
          if (prev == it->second.end() || prev->second != value) {
            if (!differing.empty()) differing += ", ";
            differing += signal;
          }
        }
        report.add("BM006", "state " + std::to_string(a->to),
                   "entered with valuation " + valuation_string(vals) +
                       " via " + arc_name(*a) + " but with " +
                       valuation_string(it->second) +
                       " via an earlier path; signals differing: " +
                       (differing.empty() ? "(none)" : differing));
      }
    }
  }
  for (int s = 0; s < spec.num_states; ++s) {
    if (!state_vals.count(s)) {
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

inline std::vector<std::string> adjacency_violations(const Spec& spec) {
  const PendingAnalysis pa = pending_analysis(spec);
  if (pa.stuck.empty()) return {};

  // One state of earliness is tolerated: an edge that arrives one burst
  // ahead of its consuming state is the ordinary input-burst overlap a
  // Burst-Mode implementation already absorbs.  The hazard is an edge
  // that can linger unconsumed across two consecutive states — the logic
  // then sits in a state whose cover never mentioned the edge, with
  // another full transition still to go (the fuzzer's gate-level witness
  // is a doubled handshake).
  std::vector<std::string> out;
  for (int s = 0; s < spec.num_states; ++s) {
    for (const Edge& p : pa.stuck[static_cast<std::size_t>(s)]) {
      for (const Arc* arc : arcs_from(spec, s)) {
        if (pa.stuck[static_cast<std::size_t>(arc->to)].count(p)) {
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
    if (!pa.reachable[static_cast<std::size_t>(s)]) continue;
    const std::set<Edge>& stuck = pa.stuck[static_cast<std::size_t>(s)];
    const std::set<Edge>& carried = pa.carried[static_cast<std::size_t>(s)];
    for (const Arc* arc : arcs_from(spec, s)) {
      if (arc->in_burst.transitions.empty()) continue;
      bool all_early = true;
      for (const ch::Transition& t : arc->in_burst.transitions) {
        const Edge e{t.signal, t.rising};
        if (!stuck.count(e) && !carried.count(e)) {
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

inline std::vector<std::set<std::pair<std::string, bool>>> early_edges(
    const Spec& spec) {
  const PendingAnalysis pa = pending_analysis(spec);
  std::vector<std::set<Edge>> out(pa.stuck.size());
  for (std::size_t s = 0; s < pa.stuck.size(); ++s) {
    out[s] = pa.stuck[s];
    out[s].insert(pa.carried[s].begin(), pa.carried[s].end());
  }
  return out;
}

/// The clusterer's merge check the reference way: a valid machine within
/// the state budget with no adjacency violation.
inline bool bm_synthesizable(const ch::Expr& expr, int max_states) {
  try {
    const Spec spec = reference::compile(expr);
    if (!reference::validate(spec).ok) return false;
    if (max_states > 0 && spec.num_states > max_states) return false;
    return reference::adjacency_violations(spec).empty();
  } catch (const ch::BmAwareError&) {
    return false;
  } catch (const std::logic_error&) {
    return false;
  }
}

}  // namespace bb::bm::reference
