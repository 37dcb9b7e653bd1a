#include "src/ch/expansion.hpp"

#include <map>

#include "src/util/strings.hpp"

namespace bb::ch {

namespace {

/// Wire-name prefix for a channel (wire names are lower-case, as in the
/// paper's figures: channel "A1" has wires "a1_r" / "a1_a").
std::string wire_prefix(const std::string& channel) {
  return util::to_lower(channel);
}

Transition tr(bool is_input, std::string signal, bool rising) {
  return Transition{is_input, std::move(signal), rising};
}

/// Expansion context: unique label generation and the loop stack that
/// resolves break targets.
struct Context {
  const ExpandOptions& options;
  int next_label = 0;
  std::vector<std::string> loop_end_labels;

  std::string fresh_label(const std::string& stem) {
    return stem + std::to_string(next_label++);
  }
};

Expansion expand_rec(const Expr& e, Context& ctx);

/// Appends `tail` to `head` by moving its items.
ItemSeq concat(ItemSeq head, ItemSeq&& tail) {
  head.insert(head.end(), std::make_move_iterator(tail.begin()),
              std::make_move_iterator(tail.end()));
  return head;
}

/// Applies Table 2 to combine two expansions under an interleaving
/// operator.  `op` must be an interleaving operator; legality has already
/// been established (or deliberately bypassed for the ablation study).
/// Both expansions are consumed: their items move into the result.
Expansion combine(ExprKind op, Expansion a, Expansion b) {
  auto& [a1, a2, a3, a4] = a.events;
  auto& [b1, b2, b3, b4] = b.events;

  Expansion out;
  // Result activity: first argument decides; a void first argument defers
  // to the body (Section 4.1 inlining), seq-ov is active, mutex passive.
  out.activity = a.activity != Activity::kNeither ? a.activity : b.activity;

  switch (op) {
    case ExprKind::kEncEarly:
      if (a.activity == Activity::kActive) {
        out.events = {std::move(a1),
                      concat(std::move(a2), std::move(b).flatten()),
                      std::move(a3), std::move(a4)};
      } else {
        out.events = {concat(std::move(a1), std::move(b).flatten()),
                      std::move(a2), std::move(a3), std::move(a4)};
      }
      break;
    case ExprKind::kEncLate:
      out.events = {std::move(a1), std::move(a2), std::move(a3),
                    concat(std::move(b).flatten(), std::move(a4))};
      break;
    case ExprKind::kEncMiddle:
      out.events = {concat(std::move(a1), std::move(b1)),
                    concat(std::move(b2), std::move(a2)),
                    concat(std::move(a3), std::move(b3)),
                    concat(std::move(b4), std::move(a4))};
      break;
    case ExprKind::kSeq:
      out.events = {concat(std::move(a).flatten(), std::move(b1)),
                    std::move(b2), std::move(b3), std::move(b4)};
      break;
    case ExprKind::kSeqOv:
      out.events = {concat(std::move(a1), std::move(a2)),
                    concat(std::move(b1), std::move(b2)),
                    concat(std::move(a3), std::move(a4)),
                    concat(std::move(b3), std::move(b4))};
      out.activity = Activity::kActive;
      break;
    case ExprKind::kMutex: {
      std::vector<ItemSeq> alternatives;
      alternatives.push_back(std::move(a).flatten());
      alternatives.push_back(std::move(b).flatten());
      out.events[0].push_back(Item::make_choice(std::move(alternatives)));
      out.activity = Activity::kPassive;
      break;
    }
    default:
      throw std::logic_error("combine: not an interleaving operator");
  }
  return out;
}

/// Checks Table 1 legality, throwing unless the options allow a bypass.
void check_legal(ExprKind op, const Expansion& a, const Expansion& b,
                 Context& ctx) {
  if (ctx.options.allow_illegal) return;
  if (!is_bm_aware(op, a.activity, b.activity)) {
    throw BmAwareError(std::string("illegal Burst-Mode combination: (") +
                       std::string(kind_keyword(op)) + " " +
                       std::string(activity_name(a.activity)) + " " +
                       std::string(activity_name(b.activity)) + ")");
  }
}

Expansion expand_ptop(const Expr& e) {
  Expansion out;
  out.activity = e.declared_activity;
  const std::string p = wire_prefix(e.channel);
  const bool active = e.declared_activity == Activity::kActive;
  // Active:  [(o r+)] [(i a+)] [(o r-)] [(i a-)]
  // Passive: [(i r+)] [(o a+)] [(i r-)] [(o a-)]
  out.events[0].push_back(Item::make(tr(!active, p + "_r", true)));
  out.events[1].push_back(Item::make(tr(active, p + "_a", true)));
  out.events[2].push_back(Item::make(tr(!active, p + "_r", false)));
  out.events[3].push_back(Item::make(tr(active, p + "_a", false)));
  return out;
}

Expansion expand_mult_ack(const Expr& e) {
  // One request wire, n synchronized acknowledge wires.
  Expansion out;
  out.activity = e.declared_activity;
  const std::string p = wire_prefix(e.channel);
  const bool active = e.declared_activity == Activity::kActive;
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

Expansion expand_mult_req(const Expr& e) {
  // n synchronized request wires, one acknowledge wire.
  Expansion out;
  out.activity = e.declared_activity;
  const std::string p = wire_prefix(e.channel);
  const bool active = e.declared_activity == Activity::kActive;
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

Expansion expand_mux_ack(const Expr& e, Context& ctx) {
  // Always active: the controller raises the request, the environment
  // answers on exactly one acknowledge wire, selecting a guarded branch.
  Expansion out;
  out.activity = Activity::kActive;
  const std::string p = wire_prefix(e.channel);

  std::vector<ItemSeq> alternatives;
  int index = 0;
  for (const MuxBranch& branch : e.branches) {
    ++index;
    // The branch's share of the mux handshake (an active stub):
    //   [] [(i a_ai+)] [(o a_r-)] [(i a_ai-)]
    Expansion share;
    share.activity = Activity::kActive;
    const std::string ack = p + "_a" + std::to_string(index);
    share.events[1].push_back(Item::make(tr(true, ack, true)));
    share.events[2].push_back(Item::make(tr(false, p + "_r", false)));
    share.events[3].push_back(Item::make(tr(true, ack, false)));

    Expansion body = expand_rec(*branch.body, ctx);
    check_legal(branch.op, share, body, ctx);
    alternatives.push_back(
        combine(branch.op, std::move(share), std::move(body)).flatten());
  }
  out.events[0].push_back(Item::make(tr(false, p + "_r", true)));
  out.events[0].push_back(Item::make_choice(std::move(alternatives)));
  return out;
}

Expansion expand_mux_req(const Expr& e, Context& ctx) {
  // Always passive: exactly one request wire fires, selecting a branch.
  Expansion out;
  out.activity = Activity::kPassive;
  const std::string p = wire_prefix(e.channel);

  std::vector<ItemSeq> alternatives;
  int index = 0;
  for (const MuxBranch& branch : e.branches) {
    ++index;
    // The branch's share:  [(i a_ri+)] [(o a_a+)] [(i a_ri-)] [(o a_a-)]
    Expansion share;
    share.activity = Activity::kPassive;
    const std::string req = p + "_r" + std::to_string(index);
    share.events[0].push_back(Item::make(tr(true, req, true)));
    share.events[1].push_back(Item::make(tr(false, p + "_a", true)));
    share.events[2].push_back(Item::make(tr(true, req, false)));
    share.events[3].push_back(Item::make(tr(false, p + "_a", false)));

    Expansion body = expand_rec(*branch.body, ctx);
    check_legal(branch.op, share, body, ctx);
    alternatives.push_back(
        combine(branch.op, std::move(share), std::move(body)).flatten());
  }
  out.events[0].push_back(Item::make_choice(std::move(alternatives)));
  return out;
}

Expansion expand_rec(const Expr& e, Context& ctx) {
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
      return Expansion{};
    case ExprKind::kVerb: {
      Expansion out;
      out.activity = activity_of(e);
      for (std::size_t i = 0; i < 4; ++i) {
        for (const Transition& t : e.verb_events[i]) {
          out.events[i].push_back(Item::make(t));
        }
      }
      return out;
    }
    case ExprKind::kRep: {
      // [label L  <body>  (goto L)  label Lend] [] [] []
      const std::string start = ctx.fresh_label("L");
      const std::string end = ctx.fresh_label("E");
      ctx.loop_end_labels.push_back(end);
      Expansion body = expand_rec(*e.args.at(0), ctx);
      ctx.loop_end_labels.pop_back();

      Expansion out;
      out.activity = body.activity;
      ItemSeq& ev = out.events[0];
      ev.push_back(Item::make_label(start));
      ev = concat(std::move(ev), std::move(body).flatten());
      ev.push_back(Item::make_goto(start));
      ev.push_back(Item::make_label(end));
      return out;
    }
    case ExprKind::kBreak: {
      if (ctx.loop_end_labels.empty()) {
        throw std::logic_error("CH: (break) outside of any (rep ...)");
      }
      Expansion out;
      out.events[0].push_back(Item::make_bgoto(ctx.loop_end_labels.back()));
      return out;
    }
    case ExprKind::kEncEarly:
    case ExprKind::kEncMiddle:
    case ExprKind::kEncLate:
    case ExprKind::kSeq:
    case ExprKind::kSeqOv:
    case ExprKind::kMutex: {
      Expansion a = expand_rec(*e.args.at(0), ctx);
      Expansion b = expand_rec(*e.args.at(1), ctx);
      check_legal(e.kind, a, b, ctx);
      return combine(e.kind, std::move(a), std::move(b));
    }
  }
  throw std::logic_error("expand: unknown expression kind");
}

void collect_signals(const ItemSeq& items,
                     std::map<std::string, bool>& directions) {
  for (const Item& item : items) {
    switch (item.kind) {
      case Item::Kind::kTransition: {
        const auto [it, inserted] = directions.emplace(
            item.transition.signal, item.transition.is_input);
        if (!inserted && it->second != item.transition.is_input) {
          throw std::logic_error("signal used as both input and output: " +
                                 item.transition.signal);
        }
        break;
      }
      case Item::Kind::kChoice:
        for (const ItemSeq& alt : item.alternatives) {
          collect_signals(alt, directions);
        }
        break;
      default:
        break;
    }
  }
}

}  // namespace

Item Item::make(Transition t) {
  Item i;
  i.kind = Kind::kTransition;
  i.transition = std::move(t);
  return i;
}
Item Item::make_label(std::string name) {
  Item i;
  i.kind = Kind::kLabel;
  i.label = std::move(name);
  return i;
}
Item Item::make_goto(std::string name) {
  Item i;
  i.kind = Kind::kGoto;
  i.label = std::move(name);
  return i;
}
Item Item::make_bgoto(std::string name) {
  Item i;
  i.kind = Kind::kBGoto;
  i.label = std::move(name);
  return i;
}
Item Item::make_choice(std::vector<std::vector<Item>> alts) {
  Item i;
  i.kind = Kind::kChoice;
  i.alternatives = std::move(alts);
  return i;
}

ItemSeq Expansion::flatten() const& {
  ItemSeq out;
  for (const ItemSeq& ev : events) out.insert(out.end(), ev.begin(), ev.end());
  return out;
}

ItemSeq Expansion::flatten() && {
  ItemSeq out = std::move(events[0]);
  for (std::size_t i = 1; i < 4; ++i) {
    out.insert(out.end(), std::make_move_iterator(events[i].begin()),
               std::make_move_iterator(events[i].end()));
  }
  return out;
}

bool is_bm_aware(ExprKind op, Activity first, Activity second) {
  // Void arguments (activity "neither") are transparent: they contribute no
  // events, so the combination is legal whenever some concrete activity
  // assignment for the void side is.
  if (first == Activity::kNeither || second == Activity::kNeither) {
    if (first == Activity::kNeither && second == Activity::kNeither) {
      return true;
    }
    for (const Activity a : {Activity::kPassive, Activity::kActive}) {
      const Activity f = first == Activity::kNeither ? a : first;
      const Activity s = second == Activity::kNeither ? a : second;
      if (is_bm_aware(op, f, s)) return true;
    }
    return false;
  }

  const bool fa = first == Activity::kActive;
  const bool sa = second == Activity::kActive;
  switch (op) {
    case ExprKind::kEncEarly:
    case ExprKind::kEncMiddle:
    case ExprKind::kSeq:
      // active/active yes, active/passive no, passive/* yes  (Table 1)
      return !(fa && !sa);
    case ExprKind::kEncLate:
      // only passive/* are legal
      return !fa;
    case ExprKind::kSeqOv:
      // only active/active
      return fa && sa;
    case ExprKind::kMutex:
      // only passive/passive
      return !fa && !sa;
    default:
      return false;
  }
}

Expansion expand(const Expr& e, const ExpandOptions& options) {
  Context ctx{options, 0, {}};
  return expand_rec(e, ctx);
}

std::string to_string(const Transition& t) {
  return std::string("(") + (t.is_input ? "i " : "o ") + t.signal +
         (t.rising ? " +" : " -") + ")";
}

std::string to_string(const Item& item) {
  switch (item.kind) {
    case Item::Kind::kTransition:
      return to_string(item.transition);
    case Item::Kind::kLabel:
      return "label " + item.label;
    case Item::Kind::kGoto:
      return "(goto " + item.label + ")";
    case Item::Kind::kBGoto:
      return "(bgoto " + item.label + ")";
    case Item::Kind::kChoice: {
      std::string s = "choice";
      for (const ItemSeq& alt : item.alternatives) {
        s += " { " + to_string(alt) + " }";
      }
      return s;
    }
  }
  return "?";
}

std::string to_string(const ItemSeq& items) {
  std::string s;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) s += " ";
    s += to_string(items[i]);
  }
  return s;
}

std::string to_string(const Expansion& expansion) {
  std::string s;
  for (std::size_t i = 0; i < 4; ++i) {
    if (i > 0) s += " ";
    s += "[" + to_string(expansion.events[i]) + "]";
  }
  return s;
}

std::vector<SignalInfo> signals_of(const Expansion& expansion) {
  std::map<std::string, bool> directions;
  for (const ItemSeq& ev : expansion.events) collect_signals(ev, directions);
  std::vector<SignalInfo> out;
  out.reserve(directions.size());
  for (const auto& [name, is_input] : directions) {
    out.push_back(SignalInfo{name, is_input});
  }
  return out;
}

}  // namespace bb::ch
