#include "src/opt/cluster.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "src/bm/compile.hpp"
#include "src/bm/validate.hpp"
#include "src/opt/ch_util.hpp"
#include "src/opt/cluster_observer.hpp"
#include "src/util/strings.hpp"

namespace bb::opt {

namespace {

using ch::Activity;
using ch::ExprKind;

/// Where a channel is used across the program collection.
struct ChannelEndpoints {
  int active_program = -1;
  int passive_program = -1;
  int active_uses = 0;
  int passive_uses = 0;
};

std::map<std::string, ChannelEndpoints> channel_map(
    const std::vector<ClusteredProgram>& programs) {
  std::map<std::string, ChannelEndpoints> out;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const int program = static_cast<int>(i);
    for_each_channel_use(
        *programs[i].program.body,
        [&](const std::string& channel, const ChannelUse& use) {
          ChannelEndpoints& ep = out[channel];
          if (use.activity == Activity::kActive) {
            ep.active_program = program;
            ++ep.active_uses;
          } else if (use.activity == Activity::kPassive) {
            ep.passive_program = program;
            ++ep.passive_uses;
          }
        });
  }
  return out;
}

void log_line(ClusterStats* stats, std::string line) {
  if (stats != nullptr) stats->log.push_back(std::move(line));
}

/// The call-component pattern: (rep (mutex-nest of
/// (enc-early (p-to-p passive b_i) (p-to-p active out)))), all branches
/// sharing the same active output channel.
struct CallPattern {
  std::vector<std::string> clients;  // b_1 .. b_n
  std::string server;                // out
};

std::optional<CallPattern> match_call(const ch::Expr& e) {
  const ch::Expr* node = &e;
  if (node->kind != ExprKind::kRep) return std::nullopt;
  node = node->args.at(0).get();

  // Collect mutex leaves.
  std::vector<const ch::Expr*> leaves;
  std::vector<const ch::Expr*> work{node};
  while (!work.empty()) {
    const ch::Expr* n = work.back();
    work.pop_back();
    if (n->kind == ExprKind::kMutex) {
      work.push_back(n->args.at(1).get());
      work.push_back(n->args.at(0).get());
    } else {
      leaves.push_back(n);
    }
  }
  if (leaves.size() < 2) return std::nullopt;

  CallPattern p;
  for (const ch::Expr* leaf : leaves) {
    if (leaf->kind != ExprKind::kEncEarly) return std::nullopt;
    const ch::Expr& client = *leaf->args.at(0);
    const ch::Expr& server = *leaf->args.at(1);
    if (client.kind != ExprKind::kPToP ||
        client.declared_activity != Activity::kPassive ||
        server.kind != ExprKind::kPToP ||
        server.declared_activity != Activity::kActive) {
      return std::nullopt;
    }
    if (p.server.empty()) {
      p.server = server.channel;
    } else if (p.server != server.channel) {
      return std::nullopt;
    }
    p.clients.push_back(client.channel);
  }
  return p;
}

/// Display names of the fragments a call was split into (read back by
/// parse_fragment_tag).
std::vector<std::string> fragment_tags(const std::string& call_name,
                                       std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(call_name + ".frag" + std::to_string(i + 1));
  }
  return out;
}

/// Activation Channel Removal, reporting its merge check to `observer`
/// (when set): the merged program and the check that accepted it.
std::optional<ClusteredProgram> remove_activation_channel(
    const ch::Program& x, const ch::Program& y, const std::string& channel,
    int max_states, const MergeCheckObserver& observer) {
  // Step 1 (Section 4.1): hide the activation channel in the activated
  // component by replacing it with a void channel, keeping the operator
  // node so the body's phase structure survives inlining.
  const auto pattern = match_activation(*y.body, channel);
  if (!pattern) return std::nullopt;

  // The activated component must not use the channel anywhere else.
  if (uses_of(*y.body, channel).size() != 1) return std::nullopt;

  ch::ExprPtr fragment = pattern->enc->clone();
  fragment->args[0] = ch::void_channel();

  // Step 2: inline the body into the activating component in place of the
  // (p-to-p active <channel>) leaf, which must appear exactly once.
  ClusteredProgram merged;
  merged.program = ch::Program(x.name + "+" + y.name, x.body->clone());
  if (replace_channel(*merged.program.body, channel, *fragment) != 1) {
    return std::nullopt;
  }

  // The merge survives only if the clustered component is still
  // Burst-Mode synthesizable (Table 1 re-check plus machine validation).
  merged.check = check_merge(*merged.program.body, max_states);
  if (observer) observer(*merged.program.body, merged.check);
  if (merged.check == nullptr) return std::nullopt;
  return merged;
}

}  // namespace

bool parse_fragment_tag(const std::string& tag, std::string& call_name,
                        int& index) {
  const std::size_t dot = tag.rfind(".frag");
  if (dot == std::string::npos) return false;
  const auto n = util::parse_ll(tag.substr(dot + 5));
  if (!n.has_value() || *n < 1) return false;
  call_name = tag.substr(0, dot);
  index = static_cast<int>(*n);
  return true;
}

bm::Spec machine_of(const ClusteredProgram& cp) {
  if (cp.check == nullptr) {
    return bm::compile(*cp.program.body, cp.program.name);
  }
  bm::Spec spec = cp.check->spec;
  spec.name = cp.program.name;
  return spec;
}

std::vector<ClusteredProgram> wrap(std::vector<ch::Program> programs) {
  std::vector<ClusteredProgram> out;
  out.reserve(programs.size());
  for (ch::Program& p : programs) {
    ClusteredProgram cp;
    cp.members = {p.name};
    cp.program = std::move(p);
    out.push_back(std::move(cp));
  }
  return out;
}

std::shared_ptr<const BmCheck> check_merge(const ch::Expr& expr,
                                           int max_states) {
  try {
    BmCheck check;
    check.spec = bm::compile(expr);
    if (max_states > 0 && check.spec.num_states > max_states) return nullptr;
    check.validation = bm::validate(check.spec);
    if (!check.validation.ok) return nullptr;
    // Enclosure substitution can push an acknowledgment arbitrarily far
    // from its request; a machine that lets an input edge dangle
    // unconsumed breaks fundamental mode under a speed-independent
    // environment (the fuzzer catches this as a doubled handshake at
    // gate level).  Such merges are rejected, not repaired.
    if (!bm::adjacency_violations(check.spec).empty()) return nullptr;
    return std::make_shared<const BmCheck>(std::move(check));
  } catch (const ch::BmAwareError&) {
    return nullptr;
  } catch (const std::logic_error&) {
    return nullptr;
  }
}

std::optional<ch::Program> activation_channel_removal(
    const ch::Program& x, const ch::Program& y, const std::string& channel,
    const ClusterOptions& options) {
  auto merged =
      remove_activation_channel(x, y, channel, options.max_states, {});
  if (!merged) return std::nullopt;
  return std::move(merged->program);
}

namespace {

std::vector<ClusteredProgram> t1_clustering(
    std::vector<ClusteredProgram> n, const ClusterOptions& options,
    ClusterStats* stats, const MergeCheckObserver& observer) {
  bool changed = true;
  std::set<std::string> rejected;  // channels that failed; retry only after
                                   // the netlist changes
  while (changed) {
    changed = false;
    const auto channels = channel_map(n);
    for (const auto& [channel, ep] : channels) {
      if (ep.active_program < 0 || ep.passive_program < 0) continue;
      if (ep.active_program == ep.passive_program) continue;
      if (ep.active_uses != 1 || ep.passive_uses != 1) continue;
      if (rejected.count(channel)) continue;

      const ClusteredProgram& x = n[ep.active_program];
      const ClusteredProgram& y = n[ep.passive_program];
      auto merged = remove_activation_channel(
          x.program, y.program, channel, options.max_states, observer);
      if (!merged) {
        if (stats != nullptr) ++stats->t1_rejected;
        log_line(stats, "T1 reject  " + channel + " (" + x.program.name +
                            " / " + y.program.name + ")");
        rejected.insert(channel);
        continue;
      }
      if (stats != nullptr) ++stats->t1_applied;
      log_line(stats, "T1 merge   " + channel + ": " + x.program.name +
                          " <- " + y.program.name);

      ClusteredProgram result = std::move(*merged);
      result.members = x.members;
      result.members.insert(result.members.end(), y.members.begin(),
                            y.members.end());

      // Replace x, erase y.
      const int xi = ep.active_program;
      const int yi = ep.passive_program;
      n[xi] = std::move(result);
      n.erase(n.begin() + yi);
      rejected.clear();  // netlist changed; failed channels may now succeed
      changed = true;
      break;  // channel indices stale; recompute
    }
  }
  return n;
}

std::vector<ClusteredProgram> t2_clustering(
    std::vector<ClusteredProgram> n, const ClusterOptions& options,
    ClusterStats* stats, const MergeCheckObserver& observer) {
  // First take every merge that needs no splitting.
  n = t1_clustering(std::move(n), options, stats, observer);

  // Then distribute call components one at a time, transactionally: split
  // the call into per-client fragments, re-run T1, and commit only if all
  // fragments were inlined into the same final controller (Section 4.2's
  // restore step, implemented as rollback).
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < n.size(); ++i) {
      const auto call = match_call(*n[i].program.body);
      if (!call) continue;

      const std::string call_name = n[i].program.name;
      const auto tags = fragment_tags(call_name, call->clients.size());
      if (stats != nullptr) ++stats->calls_split;
      log_line(stats, "T2 split   " + call_name + " into " +
                          std::to_string(tags.size()) + " fragments");

      // Build the trial netlist: copy everything, replace the call by its
      // fragments.
      std::vector<ClusteredProgram> trial;
      for (std::size_t j = 0; j < n.size(); ++j) {
        if (j == i) continue;
        ClusteredProgram copy;
        copy.program = n[j].program.clone();
        copy.members = n[j].members;
        copy.check = n[j].check;
        trial.push_back(std::move(copy));
      }
      for (std::size_t k = 0; k < call->clients.size(); ++k) {
        ClusteredProgram frag;
        frag.program = ch::Program(
            tags[k],
            ch::rep(ch::enc_early(
                ch::ptop(Activity::kPassive, call->clients[k]),
                ch::ptop(Activity::kActive, call->server))));
        frag.members = {tags[k]};
        trial.push_back(std::move(frag));
      }

      trial = t1_clustering(std::move(trial), options, stats, observer);

      // All fragments must have landed in one (clustered) controller.
      int host = -1;
      bool ok = true;
      for (const std::string& tag : tags) {
        int where = -1;
        for (std::size_t j = 0; j < trial.size(); ++j) {
          if (std::find(trial[j].members.begin(), trial[j].members.end(),
                        tag) != trial[j].members.end()) {
            where = static_cast<int>(j);
            break;
          }
        }
        if (where < 0 || trial[where].members.size() == 1 ||
            (host >= 0 && where != host)) {
          ok = false;
          break;
        }
        host = where;
      }

      if (ok) {
        if (stats != nullptr) ++stats->calls_distributed;
        log_line(stats, "T2 commit  " + call_name);
        n = std::move(trial);
        progress = true;
        break;  // indices stale
      }
      if (stats != nullptr) ++stats->calls_restored;
      log_line(stats, "T2 restore " + call_name +
                          " (fragments not clustered together)");
    }
  }
  return n;
}

}  // namespace

std::vector<ClusteredProgram> t1_clustering(std::vector<ClusteredProgram> n,
                                            const ClusterOptions& options,
                                            ClusterStats* stats) {
  return t1_clustering(std::move(n), options, stats, {});
}

std::vector<ClusteredProgram> t2_clustering(std::vector<ClusteredProgram> n,
                                            const ClusterOptions& options,
                                            ClusterStats* stats) {
  return t2_clustering(std::move(n), options, stats, {});
}

std::vector<ClusteredProgram> t2_clustering_observed(
    std::vector<ClusteredProgram> n, const ClusterOptions& options,
    const MergeCheckObserver& observer) {
  return t2_clustering(std::move(n), options, nullptr, observer);
}

std::vector<ClusteredProgram> optimize(std::vector<ch::Program> programs,
                                       const ClusterOptions& options,
                                       ClusterStats* stats) {
  return t2_clustering(wrap(std::move(programs)), options, stats);
}

}  // namespace bb::opt
