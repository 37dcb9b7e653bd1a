#include "src/flow/faultsim.hpp"

#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "src/balsa/compile.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/system.hpp"
#include "src/hsnet/to_ch.hpp"
#include "src/lint/diag.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/opt/cluster.hpp"
#include "src/util/hash.hpp"
#include "src/util/json.hpp"
#include "src/sim/fault.hpp"
#include "src/trace/automaton.hpp"
#include "src/trace/spec_lts.hpp"
#include "src/util/prng.hpp"
#include "src/util/strings.hpp"

namespace bb::flow {

namespace {

/// One controller's specification language plus the interface wires to
/// observe.  Built once per design; monitors reference it across runs.
struct MonitorSpec {
  std::string name;
  trace::Dfa dfa;
  std::vector<std::string> signals;  ///< alphabet wire names, sorted
};

/// True for plain handshake wires ("<chan>_r" / "<chan>_a").  Indexed
/// data wires ("..._a3") use a value encoding whose specified bursts do
/// not project onto single simulated transitions, so controllers whose
/// alphabet contains them are not monitored.
bool plain_handshake_wire(const std::string& signal) {
  const auto n = signal.size();
  return n >= 2 && signal[n - 2] == '_' &&
         (signal[n - 1] == 'r' || signal[n - 1] == 'a');
}

/// Re-derives the clustered controllers exactly as synthesize_control
/// does (same clustering options, deterministic order), compiles each to
/// its Burst-Mode machine, and turns the machine into a MonitorSpec DFA
/// via trace::bm_spec_lts.  The BM machine — not the CH program — is the
/// specification the gates implement: a synthesized controller may
/// legally overlap return-to-zero phases that the CH handshake expansion
/// serializes.  Where the healthy circuit still diverges (hazard pulses
/// under a faster-than-fundamental-mode environment), baseline
/// calibration bounds the monitor's horizon instead of dropping it.
std::vector<MonitorSpec> monitor_specs(const hsnet::Netlist& net,
                                       const FlowOptions& options) {
  std::vector<ch::Program> programs;
  for (const int id : net.control_ids()) {
    programs.push_back(hsnet::to_ch(net.component(id)));
  }
  std::vector<opt::ClusteredProgram> clustered;
  if (options.cluster) {
    opt::ClusterOptions copts;
    copts.max_states = options.max_states;
    clustered = opt::optimize(std::move(programs), copts);
  } else {
    clustered = opt::wrap(std::move(programs));
  }

  std::vector<MonitorSpec> specs;
  for (const auto& cp : clustered) {
    try {
      const bm::Spec machine = opt::machine_of(cp);
      std::set<std::string> signals;
      bool monitorable = true;
      for (const auto& [signal, is_input] : machine.is_input) {
        (void)is_input;
        if (!plain_handshake_wire(signal)) {
          monitorable = false;
          break;
        }
        signals.insert(signal);
      }
      if (!monitorable || signals.empty()) continue;
      MonitorSpec spec;
      spec.name = cp.program.name;
      spec.dfa = trace::determinize(trace::bm_spec_lts(machine));
      spec.signals.assign(signals.begin(), signals.end());
      specs.push_back(std::move(spec));
    } catch (const std::exception&) {
      // State explosion or an uncompilable program: skip the monitor;
      // the benchmark oracles still classify this design's runs.
    }
  }
  return specs;
}

/// Records every edge on a controller's interface wires as "<wire>+/-".
/// The verdict is computed afterwards with trace::reject_prefix, which
/// also yields the minimal counterexample prefix.
class TraceMonitor : public sim::Process {
 public:
  explicit TraceMonitor(const MonitorSpec* spec) : spec_(spec) {}

  /// Resolves the alphabet to nets and subscribes; false when a wire is
  /// missing from the netlist (monitor not attached).
  bool attach(System& system) {
    const auto& gates = system.gates();
    std::vector<int> nets;
    for (const std::string& signal : spec_->signals) {
      const int net = gates.net(signal);
      if (net < 0) return false;
      nets.push_back(net);
    }
    net_label_.assign(static_cast<std::size_t>(gates.num_nets()), {});
    for (std::size_t i = 0; i < nets.size(); ++i) {
      net_label_[nets[i]] = spec_->signals[i];
    }
    system.add_process(this, nets);
    return true;
  }

  void on_change(sim::Simulator& sim, int net) override {
    // A faulted run can oscillate for millions of events; the rejecting
    // prefix (if any) is always near the front, so recording a bounded
    // window loses nothing.
    if (observed_.size() >= kMaxTrace) return;
    observed_.push_back(net_label_[net] + (sim.value(net) ? "+" : "-"));
  }

  const MonitorSpec* spec() const { return spec_; }
  const std::vector<std::string>& observed() const { return observed_; }

 private:
  static constexpr std::size_t kMaxTrace = 4096;
  const MonitorSpec* spec_;
  std::vector<std::string> net_label_;
  std::vector<std::string> observed_;
};

/// A monitor that survived baseline validation, together with the trace
/// horizon it is trusted over.  The testbench environment answers
/// handshakes faster than the synthesized state variables settle, so a
/// healthy circuit can emit a hazard pulse that diverges from the
/// machine's serialized trace language mid-run; the baseline run
/// calibrates how far the healthy trace conforms, and faulted runs are
/// checked only over that many leading labels.  Targeted faults violate
/// the specification within the first handful of labels, far inside any
/// calibrated horizon.
struct TrustedMonitor {
  const MonitorSpec* spec = nullptr;
  std::size_t horizon = 0;  ///< labels checked per run; SIZE_MAX = all
};

/// The leading portion of an observed trace a monitor is trusted over.
std::vector<std::string> clip(std::vector<std::string> observed,
                              std::size_t horizon) {
  if (observed.size() > horizon) observed.resize(horizon);
  return observed;
}

/// A fault selected before any run, as closures over stable gate indices
/// (the flow is deterministic, so indices carry across fresh Systems).
struct PlannedFault {
  std::string kind;
  std::string label;  ///< preset description; empty = derive from plan
  std::function<void(sim::FaultPlan&)> apply;
};

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Runs one faulted simulation and classifies it.
FaultRun execute(const std::string& design, const FlowOptions& options,
                 const PlannedFault& pf,
                 const std::vector<TrustedMonitor>& trusted) {
  obs::Span span("faultsim.run", obs::kCatFault);
  span.arg("design", design);
  span.arg("kind", pf.kind);
  obs::Registry::global().counter("faultsim.runs").add();
  FaultRun run;
  run.kind = pf.kind;

  std::optional<sim::FaultPlan> plan;
  std::vector<std::pair<std::unique_ptr<TraceMonitor>, std::size_t>> monitors;
  const auto before_start = [&](System& system) {
    plan.emplace(system.gates());
    pf.apply(*plan);
    system.set_fault_plan(&*plan);
    if (!pf.label.empty()) {
      run.fault = pf.label;
    } else {
      for (const sim::Fault& fault : plan->faults()) {
        if (!run.fault.empty()) run.fault += "; ";
        run.fault += fault.describe(system.gates());
      }
    }
    for (const TrustedMonitor& tm : trusted) {
      auto monitor = std::make_unique<TraceMonitor>(tm.spec);
      if (monitor->attach(system)) {
        monitors.emplace_back(std::move(monitor), tm.horizon);
      }
    }
  };

  bool crashed = false;
  BenchmarkResult result;
  try {
    result = run_benchmark(design, options, before_start);
  } catch (const std::exception& e) {
    crashed = true;
    run.outcome = FaultOutcome::kCrash;
    run.detail = e.what();
  }

  if (!crashed) {
    run.detail = result.detail;
    run.outcome = FaultOutcome::kTolerated;
    // The trace verdict wins: a counterexample names the exact protocol
    // step the fault corrupted, which the end-to-end oracles cannot.
    // Each monitor only judges the leading window its baseline run
    // calibrated as trustworthy.
    for (const auto& [monitor, horizon] : monitors) {
      auto cex = trace::reject_prefix(monitor->spec()->dfa,
                                      clip(monitor->observed(), horizon));
      if (!cex.empty()) {
        run.outcome = FaultOutcome::kTraceCounterexample;
        run.monitor = monitor->spec()->name;
        run.counterexample = std::move(cex);
        break;
      }
    }
    if (run.outcome == FaultOutcome::kTolerated && !result.ok) {
      if (result.completed) {
        run.outcome = FaultOutcome::kWrongOutput;
      } else if (result.status == sim::RunStatus::kQuiescent) {
        run.outcome = FaultOutcome::kDeadlock;
      } else {
        run.outcome = FaultOutcome::kHang;
      }
    }
  }
  run.detected = fault_detected(run.outcome);
  span.arg("outcome", fault_outcome_name(run.outcome));
  if (run.detected) {
    obs::Registry::global().counter("faultsim.detected").add();
  }
  return run;
}

/// FNV-1a, to give each design its own PRNG stream under one seed (the
/// basis fuzz/oracle.cpp's mix_channel uses).
std::uint64_t mix_design(std::uint64_t seed, const std::string& design) {
  return seed ^ util::fnv1a64(design, 1469598103934665603ull);
}

/// A delay-perturbation run scales every gate delay by kDelayScale and
/// adds seeded jitter drawn from [-kDelayJitterNs, +kDelayJitterNs].
constexpr double kDelayScale = 1.5;
constexpr double kDelayJitterNs = 0.3;

}  // namespace

std::string_view fault_outcome_name(FaultOutcome outcome) {
  switch (outcome) {
    case FaultOutcome::kTolerated:
      return "tolerated";
    case FaultOutcome::kTraceCounterexample:
      return "trace-counterexample";
    case FaultOutcome::kWrongOutput:
      return "wrong-output";
    case FaultOutcome::kDeadlock:
      return "deadlock";
    case FaultOutcome::kHang:
      return "hang";
    case FaultOutcome::kCrash:
      return "crash";
  }
  return "?";
}

bool fault_detected(FaultOutcome outcome) {
  return outcome != FaultOutcome::kTolerated;
}

std::uint64_t effective_seed(const CampaignOptions& options) {
  return util::resolve_seed(options.seed);
}

DesignCampaign run_design_campaign(const std::string& design,
                                   const FlowOptions& options,
                                   const CampaignOptions& campaign) {
  obs::Span design_span("faultsim.design", obs::kCatFault);
  design_span.arg("design", design);
  DesignCampaign dc;
  dc.design = design;
  const std::uint64_t seed = effective_seed(campaign);

  const auto net = balsa::compile_source(designs::design(design).source);
  const std::vector<MonitorSpec> specs = monitor_specs(net, options);

  // Healthy baseline: validates the monitors (one that rejects a healthy
  // trace is specification-mismatched, not fault evidence — drop it) and
  // collects the netlist facts the fault list is drawn from.
  int num_gates = 0;
  std::vector<int> state_gates;  // C-element outputs: SEU targets
  std::map<std::string, int> targeted_gate;  // monitor -> driving gate
  std::vector<std::unique_ptr<TraceMonitor>> baseline_monitors;
  const auto before_start = [&](System& system) {
    const auto& gates = system.gates();
    num_gates = static_cast<int>(gates.gates().size());
    for (std::size_t g = 0; g < gates.gates().size(); ++g) {
      if (gates.gates()[g].fn == netlist::CellFn::kCelem) {
        state_gates.push_back(static_cast<int>(g));
      }
    }
    const auto drivers = gates.driver_table();
    for (const MonitorSpec& spec : specs) {
      for (const std::string& signal : spec.signals) {
        const int n = gates.net(signal);
        if (n >= 0 && drivers[n] >= 0) {
          targeted_gate.emplace(spec.name, drivers[n]);
          break;
        }
      }
      auto monitor = std::make_unique<TraceMonitor>(&spec);
      if (monitor->attach(system)) {
        baseline_monitors.push_back(std::move(monitor));
      }
    }
  };
  const BenchmarkResult baseline = [&] {
    obs::Span span("faultsim.baseline", obs::kCatFault);
    span.arg("design", design);
    return run_benchmark(design, options, before_start);
  }();
  dc.baseline_ok = baseline.ok;

  // Calibrate each monitor against the healthy trace.  A fully
  // conforming baseline earns an unlimited horizon.  If the healthy run
  // first diverges from the machine's serialized language at label p
  // (hazard pulses under the fast testbench environment do this), the
  // monitor is still sound over the first p-1 labels, so faulted runs
  // are judged on that window; a horizon too short to contain a
  // handshake is specification mismatch, and the monitor is dropped.
  constexpr std::size_t kMinHorizon = 8;
  std::vector<TrustedMonitor> trusted;
  for (const auto& monitor : baseline_monitors) {
    const auto cex =
        trace::reject_prefix(monitor->spec()->dfa, monitor->observed());
    if (cex.empty()) {
      trusted.push_back(
          {monitor->spec(), std::numeric_limits<std::size_t>::max()});
    } else if (cex.size() - 1 >= kMinHorizon) {
      trusted.push_back({monitor->spec(), cex.size() - 1});
    }
  }
  dc.monitors = static_cast<int>(trusted.size());

  // The deterministic fault list.
  util::SplitMix64 prng(mix_design(seed, design));
  std::vector<PlannedFault> planned;

  // Targeted stuck-at-1 per validated monitor: forcing a controller
  // output high at t=0 makes an edge the specification never allows
  // there, so these are the faults the trace verifier catches.  The
  // sampled set keeps the random faults from re-injecting them.
  std::set<std::pair<int, bool>> sampled;
  for (const TrustedMonitor& tm : trusted) {
    const auto it = targeted_gate.find(tm.spec->name);
    if (it == targeted_gate.end()) continue;
    const int gate = it->second;
    if (!sampled.insert({gate, true}).second) continue;
    planned.push_back({"stuck-at-1", "", [gate](sim::FaultPlan& plan) {
                         plan.stuck_at(gate, true);
                       }});
  }
  for (int j = 0; j < campaign.random_stuck_at && num_gates > 0; ++j) {
    const bool value = (j % 2) != 0;
    int gate = static_cast<int>(prng.below(num_gates));
    for (int retry = 0; retry < 8 && sampled.count({gate, value}); ++retry) {
      gate = static_cast<int>(prng.below(num_gates));
    }
    sampled.insert({gate, value});
    planned.push_back(
        {value ? "stuck-at-1" : "stuck-at-0", "",
         [gate, value](sim::FaultPlan& plan) { plan.stuck_at(gate, value); }});
  }

  for (int j = 0; j < campaign.bit_flips && num_gates > 0; ++j) {
    const int gate =
        state_gates.empty()
            ? static_cast<int>(prng.below(num_gates))
            : state_gates[prng.below(state_gates.size())];
    const double at_ns = 5.0 + static_cast<double>(prng.below(150));
    planned.push_back({"bit-flip", "", [gate, at_ns](sim::FaultPlan& plan) {
                         plan.bit_flip(plan.netlist().gates()[gate].output,
                                       at_ns);
                       }});
  }

  for (int j = 0; j < campaign.delay_runs; ++j) {
    const std::uint64_t delay_seed = prng.next();
    planned.push_back({"delay-perturbation",
                       "delay-perturbation scale=" + fmt_double(kDelayScale) +
                           " jitter=" + fmt_double(kDelayJitterNs) +
                           "ns seed=" + std::to_string(delay_seed),
                       [delay_seed](sim::FaultPlan& plan) {
                         plan.perturb_delays(delay_seed, kDelayScale,
                                             kDelayJitterNs);
                       }});
  }

  for (const PlannedFault& pf : planned) {
    FaultRun run = execute(design, options, pf, trusted);
    ++dc.injected;
    if (run.detected) {
      ++dc.detected;
    } else {
      ++dc.tolerated;
    }
    if (run.outcome == FaultOutcome::kWrongOutput) ++dc.silent_corruption;
    if (run.outcome == FaultOutcome::kTraceCounterexample) {
      ++dc.trace_detected;
    }
    dc.runs.push_back(std::move(run));
  }
  return dc;
}

CampaignResult run_fault_campaign(const std::vector<std::string>& designs,
                                  const FlowOptions& options,
                                  const CampaignOptions& campaign) {
  CampaignResult result;
  result.seed = effective_seed(campaign);
  for (const std::string& design : designs) {
    result.designs.push_back(run_design_campaign(design, options, campaign));
  }
  return result;
}

int CampaignResult::total_injected() const {
  int n = 0;
  for (const DesignCampaign& d : designs) n += d.injected;
  return n;
}

int CampaignResult::total_detected() const {
  int n = 0;
  for (const DesignCampaign& d : designs) n += d.detected;
  return n;
}

int CampaignResult::total_tolerated() const {
  int n = 0;
  for (const DesignCampaign& d : designs) n += d.tolerated;
  return n;
}

int CampaignResult::total_silent_corruption() const {
  int n = 0;
  for (const DesignCampaign& d : designs) n += d.silent_corruption;
  return n;
}

std::string CampaignResult::to_text() const {
  std::string s = "fault campaign, seed " + std::to_string(seed) + "\n";
  for (const DesignCampaign& d : designs) {
    s += d.design + ": " + std::to_string(d.injected) + " injected, " +
         std::to_string(d.detected) + " detected (" +
         std::to_string(d.trace_detected) + " by trace verifier), " +
         std::to_string(d.tolerated) + " tolerated, " +
         std::to_string(d.silent_corruption) + " silent corruption; " +
         std::to_string(d.monitors) + " monitor(s), baseline " +
         (d.baseline_ok ? "ok" : "FAILED") + "\n";
    for (const FaultRun& run : d.runs) {
      s += "  " + std::string(run.detected ? "detected " : "tolerated ") +
           run.fault + ": " + std::string(fault_outcome_name(run.outcome));
      if (!run.monitor.empty()) {
        s += " via " + run.monitor + " [";
        for (std::size_t i = 0; i < run.counterexample.size(); ++i) {
          if (i > 0) s += " ";
          s += run.counterexample[i];
        }
        s += "]";
      }
      s += "\n";
    }
  }
  s += "total: " + std::to_string(total_injected()) + " injected, " +
       std::to_string(total_detected()) + " detected, " +
       std::to_string(total_tolerated()) + " tolerated, " +
       std::to_string(total_silent_corruption()) + " silent corruption\n";
  return s;
}

std::string CampaignResult::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", kFaultCampaignSchemaVersion);
  w.member("seed", seed);
  w.key("designs").begin_array();
  for (const DesignCampaign& d : designs) {
    w.begin_object();
    w.member("design", d.design);
    w.member("baseline_ok", d.baseline_ok);
    w.member("monitors", d.monitors);
    w.member("injected", d.injected);
    w.member("detected", d.detected);
    w.member("tolerated", d.tolerated);
    w.member("silent_corruption", d.silent_corruption);
    w.member("trace_detected", d.trace_detected);
    w.key("runs").begin_array();
    for (const FaultRun& run : d.runs) {
      w.begin_object();
      w.member("fault", run.fault);
      w.member("kind", run.kind);
      w.member("outcome", fault_outcome_name(run.outcome));
      w.member("detected", run.detected);
      if (!run.monitor.empty()) {
        w.member("monitor", run.monitor);
        w.key("counterexample").begin_array();
        for (const std::string& label : run.counterexample) {
          w.value(label);
        }
        w.end_array();
      }
      w.member("detail", run.detail);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("totals")
      .begin_object()
      .member("injected", total_injected())
      .member("detected", total_detected())
      .member("tolerated", total_tolerated())
      .member("silent_corruption", total_silent_corruption())
      .end_object();
  w.end_object();
  return w.str();
}

}  // namespace bb::flow
