// CH manipulation utilities used by the clustering optimizations:
// channel-use queries, hide, and subexpression replacement (Section 4).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/ch/ast.hpp"

namespace bb::opt {

/// One use of a channel inside an expression.
struct ChannelUse {
  ch::ExprKind kind = ch::ExprKind::kPToP;
  ch::Activity activity = ch::Activity::kNeither;
};

/// Calls `fn(channel, use)` for every channel use in `e`, in traversal
/// order; void and verbatim leaves are not channel uses.
void for_each_channel_use(
    const ch::Expr& e,
    const std::function<void(const std::string&, const ChannelUse&)>& fn);

/// All uses of channel `name` in `e` (normally zero or one).
std::vector<ChannelUse> uses_of(const ch::Expr& e, const std::string& name);

/// Every channel name mentioned in `e`.
std::vector<std::string> channel_names(const ch::Expr& e);

/// The activation-channel pattern of Section 4.1: the expression (with an
/// optional outer rep) is (<op> (p-to-p passive <channel>) <body>) where
/// <op> is an enclosure or sequencing operator.  Hiding replaces the
/// channel with void in place, so the operator's phase structure (e.g.
/// enc-middle's pairwise interleaving) is preserved when inlining.
struct ActivationPattern {
  const ch::Expr* enc = nullptr;   ///< the operator node carrying the channel
  const ch::Expr* body = nullptr;  ///< the useful body
};

/// Matches the activation pattern for `channel` in `e`, if present.
std::optional<ActivationPattern> match_activation(const ch::Expr& e,
                                                  const std::string& channel);

/// Replaces every leaf (p-to-p <any activity> <channel>) in `e` with a
/// clone of `replacement`.  Returns the number of replacements.
int replace_channel(ch::Expr& e, const std::string& channel,
                    const ch::Expr& replacement);

}  // namespace bb::opt
