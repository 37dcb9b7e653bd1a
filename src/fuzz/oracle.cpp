#include "src/fuzz/oracle.hpp"

#include <deque>
#include <memory>
#include <set>

#include "src/flow/system.hpp"
#include "src/flow/testbench.hpp"
#include "src/hsnet/to_ch.hpp"
#include "src/obs/trace.hpp"
#include "src/opt/ch_util.hpp"
#include "src/opt/cluster.hpp"
#include "src/petri/from_ch.hpp"
#include "src/trace/automaton.hpp"
#include "src/trace/spec_lts.hpp"
#include "src/trace/verify.hpp"
#include "src/util/hash.hpp"
#include "src/util/prng.hpp"

namespace bb::fuzz {

namespace {

/// Simulation limits of one observe() run.
constexpr double kMaxSimNs = 200000.0;
constexpr std::uint64_t kMaxSimEvents = 4'000'000;

/// Reachability bound for the conformance oracle.  Deliberately small: a
/// composition this size takes minutes to determinize, and a counted
/// skip is worth more than a stuck campaign.
constexpr std::size_t kStateLimit = 1u << 14;

/// FNV-1a, so every channel gets its own value stream under one seed
/// (the same per-stream trick flow/faultsim.cpp uses per design).  The
/// basis is one digit short of FNV's standard offset basis; it stays so
/// existing seeds keep their value streams.
std::uint64_t mix_channel(std::uint64_t seed, const std::string& channel) {
  return seed ^ util::fnv1a64(channel, 1469598103934665603ull);
}

/// +1 when the circuit pushes the external data channel (output port),
/// -1 when it pulls (input port), 0 when the port is unused.
int data_direction(const hsnet::Netlist& net, const hsnet::ChannelInfo& info) {
  for (const int id : info.endpoints) {
    const hsnet::Component& c = net.component(id);
    if (c.kind == hsnet::ComponentKind::kFetch) {
      if (c.ports.at(1) == info.name) return -1;
      if (c.ports.at(2) == info.name) return +1;
    }
    if (c.kind == hsnet::ComponentKind::kMerge &&
        c.ports.back() == info.name) {
      return c.op == "pull" ? -1 : +1;
    }
  }
  return 0;
}

std::string join_counts(const std::map<std::string, int>& counts) {
  std::string out;
  for (const auto& [name, n] : counts) {
    if (!out.empty()) out += " ";
    out += name + "=" + std::to_string(n);
  }
  return out;
}

}  // namespace

std::string SimObservation::describe() const {
  if (flow_error) return "flow-error: " + flow_error_text;
  std::string out = status;
  out += completed ? " completed" : " incomplete";
  for (const auto& [name, values] : outputs) {
    out += " " + name + "=[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(values[i]);
    }
    out += "]";
  }
  if (!sync_counts.empty()) out += " sync{" + join_counts(sync_counts) + "}";
  if (!pull_counts.empty()) out += " pull{" + join_counts(pull_counts) + "}";
  return out;
}

SimObservation observe(const hsnet::Netlist& netlist,
                       const flow::FlowOptions& options,
                       std::uint64_t value_seed) {
  SimObservation obs;
  try {
    flow::System system(netlist, options);
    flow::ActivateDriver activate(system, "activate");

    // Stable-address server storage: System keeps Process pointers.
    std::deque<flow::SyncServer> syncs;
    std::deque<flow::PushServer> pushes;
    struct PullSlot {
      util::SplitMix64 rng;
      std::uint64_t mask;
      std::unique_ptr<flow::PullServer> server;
    };
    std::deque<PullSlot> pulls;

    std::vector<std::string> sync_names, pull_names, push_names;
    for (const auto& [name, info] : netlist.channels()) {
      if (!info.external || name == "activate") continue;
      if (info.endpoints.empty()) continue;  // declared but unused port
      if (info.width == 0) {
        syncs.emplace_back(system, name);
        sync_names.push_back(name);
        continue;
      }
      const int dir = data_direction(netlist, info);
      if (dir > 0) {
        pushes.emplace_back(system, name);
        push_names.push_back(name);
      } else if (dir < 0) {
        PullSlot& slot = pulls.emplace_back(
            PullSlot{util::SplitMix64(mix_channel(value_seed, name)),
                     info.width >= 64 ? ~0ull : (1ull << info.width) - 1,
                     nullptr});
        slot.server = std::make_unique<flow::PullServer>(
            system, name, [&slot] { return slot.rng.next() & slot.mask; });
        pull_names.push_back(name);
      }
    }

    sim::Simulator& sim = system.start();
    const sim::RunStatus status = sim.run_status(kMaxSimNs, kMaxSimEvents);
    obs.status = std::string(sim::run_status_name(status));
    obs.completed = activate.done() && status == sim::RunStatus::kQuiescent;
    for (std::size_t i = 0; i < sync_names.size(); ++i) {
      obs.sync_counts[sync_names[i]] = syncs[i].completed();
    }
    for (std::size_t i = 0; i < pull_names.size(); ++i) {
      obs.pull_counts[pull_names[i]] = pulls[i].server->served();
    }
    for (std::size_t i = 0; i < push_names.size(); ++i) {
      obs.outputs[push_names[i]] = pushes[i].values();
    }
  } catch (const std::exception& e) {
    obs.flow_error = true;
    obs.flow_error_text = e.what();
  }
  return obs;
}

std::string compare_observations(const SimObservation& optimized,
                                 const SimObservation& baseline) {
  if (optimized.flow_error != baseline.flow_error) {
    const SimObservation& failing = optimized.flow_error ? optimized : baseline;
    return std::string("only the ") +
           (optimized.flow_error ? "optimized" : "baseline") +
           " flow failed: " + failing.flow_error_text;
  }
  if (optimized.flow_error) return "";  // both rejected; caller classifies
  if (optimized.completed != baseline.completed ||
      optimized.status != baseline.status) {
    return "completion differs: optimized [" + optimized.status +
           (optimized.completed ? " completed" : " incomplete") +
           "] vs baseline [" + baseline.status +
           (baseline.completed ? " completed" : " incomplete") + "]";
  }
  if (optimized.outputs != baseline.outputs) {
    return "output values differ: optimized {" + optimized.describe() +
           "} vs baseline {" + baseline.describe() + "}";
  }
  if (optimized.sync_counts != baseline.sync_counts) {
    return "sync handshake counts differ: optimized {" +
           join_counts(optimized.sync_counts) + "} vs baseline {" +
           join_counts(baseline.sync_counts) + "}";
  }
  if (optimized.pull_counts != baseline.pull_counts) {
    return "input handshake counts differ: optimized {" +
           join_counts(optimized.pull_counts) + "} vs baseline {" +
           join_counts(baseline.pull_counts) + "}";
  }
  return "";
}

std::string_view verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kPass: return "pass";
    case Verdict::kDiscrepancy: return "discrepancy";
    case Verdict::kRejected: return "rejected";
    case Verdict::kSkipped: return "skipped";
  }
  return "?";
}

OracleResult differential_check(const hsnet::Netlist& netlist,
                                std::uint64_t value_seed,
                                minimalist::SynthCache* cache) {
  OracleResult result;
  result.oracle = "sim";
  flow::FlowOptions optimized_options = flow::FlowOptions::optimized();
  flow::FlowOptions baseline_options = flow::FlowOptions::unoptimized();
  optimized_options.cache_instance = cache;
  baseline_options.cache_instance = cache;
  const SimObservation optimized =
      observe(netlist, optimized_options, value_seed);
  const SimObservation baseline =
      observe(netlist, baseline_options, value_seed);

  if (optimized.flow_error && baseline.flow_error) {
    result.verdict = Verdict::kRejected;
    result.detail = "both flows rejected the design: " +
                    optimized.flow_error_text;
    return result;
  }
  const std::string diff = compare_observations(optimized, baseline);
  if (!diff.empty()) {
    result.verdict = Verdict::kDiscrepancy;
    result.detail = diff;
    return result;
  }
  if (!optimized.completed) {
    // Generated designs terminate by construction; agreeing on a hang
    // or deadlock still means the shared pipeline miscompiled it.
    result.verdict = Verdict::kDiscrepancy;
    result.detail =
        "neither variant completed a terminating design: " +
        optimized.describe();
    return result;
  }
  result.verdict = Verdict::kPass;
  return result;
}

namespace {

/// Rebuilds one CH member program for the T2 call fragments a cluster
/// absorbed from a single Call component.  The fragments of one call
/// act on the same server channel, so modelling them as independent
/// processes is wrong: Petri composition would fuse their server
/// transitions and demand they fire together.  Instead the in-cluster
/// client enclosures are folded into one mutually-exclusive process,
/// exactly the shape hsnet::to_ch gives the full component (restricted
/// to the absorbed clients).
ch::Program make_call_member(const hsnet::Netlist& netlist,
                             const std::string& call_name,
                             const std::vector<int>& indices) {
  for (const hsnet::Component& c : netlist.components()) {
    if (c.kind != hsnet::ComponentKind::kCall) continue;
    if (c.display_name() != call_name) continue;
    const std::string& server = c.ports.at(static_cast<std::size_t>(c.ways));
    std::vector<ch::ExprPtr> alts;
    for (const int index : indices) {
      if (index < 1 || index > c.ways) {
        throw std::runtime_error("fragment index out of range for " +
                                 call_name);
      }
      alts.push_back(ch::enc_early(
          ch::ptop(ch::Activity::kPassive,
                   c.ports.at(static_cast<std::size_t>(index - 1))),
          ch::ptop(ch::Activity::kActive, server)));
    }
    ch::ExprPtr body = std::move(alts.back());
    for (std::size_t i = alts.size() - 1; i-- > 0;) {
      body = ch::mutex(std::move(alts[i]), std::move(body));
    }
    return ch::Program(call_name + ".frags", ch::rep(std::move(body)));
  }
  throw std::runtime_error("no call component named " + call_name);
}

}  // namespace

ClusterMembers cluster_members(const hsnet::Netlist& netlist,
                               const std::vector<ch::Program>& originals,
                               const opt::ClusteredProgram& cp) {
  std::map<std::string, const ch::Program*> by_name;
  for (const ch::Program& p : originals) by_name[p.name] = &p;

  ClusterMembers out;
  // Group T2 fragments by their originating Call: fragments of one call
  // become a single mutually-exclusive member.
  std::map<std::string, std::vector<int>> call_fragments;
  for (const std::string& member : cp.members) {
    const auto it = by_name.find(member);
    std::string call_name;
    int index = 0;
    if (it != by_name.end()) {
      out.members.push_back(it->second->body.get());
    } else if (opt::parse_fragment_tag(member, call_name, index)) {
      call_fragments[call_name].push_back(index);
    } else {
      throw std::runtime_error("unknown cluster member " + member);
    }
  }
  for (const auto& [call_name, indices] : call_fragments) {
    out.fragments.push_back(make_call_member(netlist, call_name, indices));
    out.members.push_back(out.fragments.back().body.get());
  }
  // The internalized channels: mentioned by some member but no longer
  // visible on the clustered controller's interface.
  std::set<std::string> member_channels;
  for (const ch::Expr* e : out.members) {
    for (const std::string& c : opt::channel_names(*e)) {
      member_channels.insert(c);
    }
  }
  std::set<std::string> interface;
  for (const std::string& c : opt::channel_names(*cp.program.body)) {
    interface.insert(c);
  }
  for (const std::string& c : member_channels) {
    if (!interface.count(c)) out.hidden.push_back(c);
  }
  return out;
}

OracleResult conformance_check(const hsnet::Netlist& netlist,
                               int max_states) {
  OracleResult result;
  result.oracle = "conformance";
  int skipped = 0;
  try {
    const std::vector<ch::Program> originals =
        hsnet::control_programs(netlist);
    std::vector<ch::Program> input;
    input.reserve(originals.size());
    for (const ch::Program& p : originals) input.push_back(p.clone());
    opt::ClusterOptions cluster_options;
    cluster_options.max_states = max_states;
    obs::Span cluster_span("fuzz.cluster", obs::kCatVerify);
    const std::vector<opt::ClusteredProgram> clustered =
        opt::optimize(std::move(input), cluster_options);
    cluster_span.finish();

    for (const opt::ClusteredProgram& cp : clustered) {
      if (cp.members.size() >= 2) {
        try {
          const ClusterMembers cm = cluster_members(netlist, originals, cp);
          const trace::VerifyResult vr = trace::verify_composition(
              cm.members, cm.hidden, *cp.program.body, kStateLimit);
          if (!vr.equivalent) {
            result.verdict = Verdict::kDiscrepancy;
            result.controller = cp.program.name;
            result.counterexample = vr.counterexample;
            result.detail = "clustered controller '" + cp.program.name +
                            "' does not conform to its composed members";
            return result;
          }
        } catch (const std::exception&) {
          ++skipped;  // state explosion or unexpected structure
        }
      }
      // Every controller's CH traces must be accepted by the trace
      // language of its compiled Burst-Mode machine.
      try {
        const bm::Spec spec = opt::machine_of(cp);
        const trace::Dfa spec_dfa =
            trace::determinize(trace::bm_spec_lts(spec));
        const trace::Dfa ch_dfa = trace::determinize(
            petri::from_ch(*cp.program.body).reachability(kStateLimit));
        const std::vector<std::string> cex =
            trace::containment_counterexample(spec_dfa, ch_dfa);
        if (!cex.empty()) {
          result.verdict = Verdict::kDiscrepancy;
          result.controller = cp.program.name;
          result.counterexample = cex;
          result.detail = "controller '" + cp.program.name +
                          "' exhibits a trace its BM machine never allows";
          return result;
        }
      } catch (const std::exception&) {
        ++skipped;
      }
    }
  } catch (const std::exception& e) {
    result.verdict = Verdict::kSkipped;
    result.detail = std::string("conformance oracle unavailable: ") + e.what();
    return result;
  }
  if (skipped > 0) {
    result.verdict = Verdict::kSkipped;
    result.detail =
        std::to_string(skipped) + " conformance check(s) skipped (state limit)";
    return result;
  }
  result.verdict = Verdict::kPass;
  return result;
}

}  // namespace bb::fuzz
