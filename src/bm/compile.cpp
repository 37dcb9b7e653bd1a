#include "src/bm/compile.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <stdexcept>
#include <utility>

namespace bb::bm {

namespace {

using ch::Item;
using ch::ItemSeq;
using ch::Transition;

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
    emit_arc(cur.state, next, Burst{std::move(cur.in)},
             Burst{std::move(cur.out)});
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
            emit_arc(cur.state, target, Burst{std::move(cur.in)},
                     Burst{std::move(cur.out)}, item.label);
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

    // BFS renumbering from the initial state, over arcs indexed by their
    // source state once.
    std::vector<std::vector<int>> successors(parent_.size());
    for (const RawArc& a : arcs_) {
      successors[static_cast<std::size_t>(a.from)].push_back(a.to);
    }
    std::vector<int> number(parent_.size(), -1);
    std::deque<int> queue;
    const int init = find(start);
    int numbered = 0;
    number[static_cast<std::size_t>(init)] = numbered++;
    queue.push_back(init);
    while (!queue.empty()) {
      const int s = queue.front();
      queue.pop_front();
      for (const int to : successors[static_cast<std::size_t>(s)]) {
        if (number[static_cast<std::size_t>(to)] < 0) {
          number[static_cast<std::size_t>(to)] = numbered++;
          queue.push_back(to);
        }
      }
    }

    spec_.initial_state = 0;
    spec_.num_states = numbered;
    // Arcs kept so far, by (from, to), for dropping duplicates.
    std::map<std::pair<int, int>, std::vector<std::size_t>> kept;
    for (RawArc& a : arcs_) {
      const int from = number[static_cast<std::size_t>(a.from)];
      if (from < 0) continue;  // unreachable
      Arc out;
      out.from = from;
      out.to = number[static_cast<std::size_t>(a.to)];
      out.in_burst = std::move(a.in);
      out.out_burst = std::move(a.out);
      out.in_burst.normalize();
      out.out_burst.normalize();
      std::vector<std::size_t>& twins = kept[{out.from, out.to}];
      const bool duplicate =
          std::any_of(twins.begin(), twins.end(), [&](std::size_t k) {
            return same_edges(spec_.arcs[k].in_burst, out.in_burst) &&
                   same_edges(spec_.arcs[k].out_burst, out.out_burst);
          });
      if (duplicate) continue;
      for (const Transition& t : out.in_burst.transitions) {
        spec_.is_input[t.signal] = true;
      }
      for (const Transition& t : out.out_burst.transitions) {
        spec_.is_input[t.signal] = false;
      }
      twins.push_back(spec_.arcs.size());
      spec_.arcs.push_back(std::move(out));
    }
  }

  /// True when two normalized bursts list the same edges in the same
  /// order (what equal Burst::to_string texts mean).
  static bool same_edges(const Burst& a, const Burst& b) {
    return std::equal(a.transitions.begin(), a.transitions.end(),
                      b.transitions.begin(), b.transitions.end(),
                      [](const Transition& x, const Transition& y) {
                        return x.rising == y.rising && x.signal == y.signal;
                      });
  }

  Spec spec_;
  std::vector<int> parent_;
  std::vector<RawArc> arcs_;
  std::map<std::string, int> label_state_;
  std::map<std::string, std::vector<Transition>> label_prefix_;
};

}  // namespace

Spec compile(const ch::Expr& expr, const std::string& name,
             const ch::ExpandOptions& options) {
  return compile_items(ch::expand(expr, options).flatten(), name);
}

Spec compile_items(const ItemSeq& items, const std::string& name) {
  Builder builder;
  return builder.build(items, name);
}

}  // namespace bb::bm
