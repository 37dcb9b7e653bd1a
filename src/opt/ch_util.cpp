#include "src/opt/ch_util.hpp"

#include <set>

namespace bb::opt {

void for_each_channel_use(
    const ch::Expr& e,
    const std::function<void(const std::string&, const ChannelUse&)>& fn) {
  if (ch::is_channel(e.kind)) {
    if (e.kind != ch::ExprKind::kVoid && e.kind != ch::ExprKind::kVerb) {
      fn(e.channel, ChannelUse{e.kind, ch::activity_of(e)});
    }
    for (const ch::MuxBranch& b : e.branches) {
      for_each_channel_use(*b.body, fn);
    }
    return;
  }
  for (const ch::ExprPtr& a : e.args) for_each_channel_use(*a, fn);
}

std::vector<ChannelUse> uses_of(const ch::Expr& e, const std::string& name) {
  std::vector<ChannelUse> uses;
  for_each_channel_use(e, [&](const std::string& channel,
                              const ChannelUse& use) {
    if (channel == name) uses.push_back(use);
  });
  return uses;
}

std::vector<std::string> channel_names(const ch::Expr& e) {
  std::set<std::string> names;
  for_each_channel_use(
      e, [&](const std::string& channel, const ChannelUse&) {
        names.insert(channel);
      });
  return {names.begin(), names.end()};
}

std::optional<ActivationPattern> match_activation(const ch::Expr& e,
                                                  const std::string& channel) {
  const ch::Expr* node = &e;
  if (node->kind == ch::ExprKind::kRep) node = node->args.at(0).get();
  // Only enclosure operators qualify: the activation channel must enclose
  // the useful body within its handshake (Section 4.1).  A seq-carried
  // channel does not enclose its continuation, and removing it would
  // serialize behaviour that the composition leaves concurrent.
  switch (node->kind) {
    case ch::ExprKind::kEncEarly:
    case ch::ExprKind::kEncMiddle:
    case ch::ExprKind::kEncLate:
      break;
    default:
      return std::nullopt;
  }
  const ch::Expr& first = *node->args.at(0);
  if (first.kind != ch::ExprKind::kPToP || first.channel != channel ||
      first.declared_activity != ch::Activity::kPassive) {
    return std::nullopt;
  }
  ActivationPattern p;
  p.enc = node;
  p.body = node->args.at(1).get();
  return p;
}

int replace_channel(ch::Expr& e, const std::string& channel,
                    const ch::Expr& replacement) {
  int count = 0;
  if (ch::is_channel(e.kind)) {
    for (ch::MuxBranch& b : e.branches) {
      count += replace_channel(*b.body, channel, replacement);
    }
    return count;
  }
  for (ch::ExprPtr& a : e.args) {
    if (a->kind == ch::ExprKind::kPToP && a->channel == channel) {
      a = replacement.clone();
      ++count;
    } else {
      count += replace_channel(*a, channel, replacement);
    }
  }
  return count;
}

}  // namespace bb::opt
