// Event-kernel unit tests plus the key system check: synthesized and
// technology-mapped controllers, simulated at gate level, must replay
// their Burst-Mode specifications hazard-free.
#include <gtest/gtest.h>

#include "src/bm/compile.hpp"
#include "src/ch/parser.hpp"
#include "src/minimalist/synth.hpp"
#include "src/sim/gatesim.hpp"
#include "src/sim/kernel.hpp"
#include "src/techmap/cells.hpp"
#include "src/techmap/map.hpp"

namespace bb::sim {
namespace {

TEST(Kernel, ScheduleAndRun) {
  Simulator sim(2);
  sim.schedule(0, true, 1.0);
  sim.schedule(1, true, 2.0);
  EXPECT_TRUE(sim.run());
  EXPECT_TRUE(sim.value(0));
  EXPECT_TRUE(sim.value(1));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Kernel, InertialCancellation) {
  // A pulse shorter than the pending transition is swallowed.
  Simulator sim(1);
  sim.schedule(0, true, 5.0);
  sim.schedule(0, false, 1.0);  // contradicts, net already 0: both vanish
  EXPECT_TRUE(sim.run());
  EXPECT_FALSE(sim.value(0));
}

TEST(Kernel, CallbacksInterleaveWithEvents) {
  Simulator sim(1);
  std::vector<int> order;
  sim.call_at(1.0, [&] { order.push_back(1); });
  sim.schedule(0, true, 2.0);
  sim.call_at(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(sim.run());
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_TRUE(sim.value(0));
}

TEST(Kernel, SubscriberNotified) {
  struct Watcher : Process {
    int count = 0;
    void on_change(Simulator&, int) override { ++count; }
  };
  Simulator sim(1);
  Watcher w;
  sim.subscribe(0, &w);
  sim.schedule(0, true, 1.0);
  EXPECT_TRUE(sim.run());
  sim.schedule(0, false, 1.0);
  EXPECT_TRUE(sim.run());
  EXPECT_EQ(w.count, 2);
}

TEST(Kernel, EventBudgetIsPerCall) {
  // Each run() call must start its event count from zero: with the old
  // accumulating counter, a second run inherited the first call's count
  // and could spuriously report budget exhaustion.
  Simulator sim(1);
  for (int round = 0; round < 5; ++round) {
    for (int i = 1; i <= 10; ++i) {
      sim.call_at(static_cast<double>(i), [] {});
    }
    EXPECT_EQ(sim.run_status(1e9, 15), RunStatus::kQuiescent) << round;
    EXPECT_EQ(sim.events_processed(), 10u) << round;
  }
  EXPECT_EQ(sim.total_events(), 50u);
}

TEST(Kernel, RunStatusEventBudget) {
  // A self-sustaining toggler exceeds any finite event budget.
  struct Toggler : Process {
    void start(Simulator& sim) override { sim.schedule(0, true, 1.0); }
    void on_change(Simulator& sim, int net) override {
      sim.schedule(net, !sim.value(net), 1.0);
    }
  };
  Simulator sim(1);
  Toggler t;
  sim.subscribe(0, &t);
  sim.add_process(&t);
  EXPECT_EQ(sim.run_status(1e9, 100), RunStatus::kEventBudget);
  // The budget is per-call: the next call gets a fresh 100 events.
  EXPECT_EQ(sim.run_status(1e9, 100), RunStatus::kEventBudget);
  EXPECT_EQ(sim.events_processed(), 100u);
}

TEST(Kernel, RunStatusTimeoutThenResume) {
  Simulator sim(1);
  sim.schedule(0, true, 10.0);
  EXPECT_EQ(sim.run_status(5.0), RunStatus::kTimeout);
  EXPECT_FALSE(sim.value(0)) << "event beyond the horizon must not fire";
  // Extending the horizon lets the same event complete.
  EXPECT_EQ(sim.run_status(20.0), RunStatus::kQuiescent);
  EXPECT_TRUE(sim.value(0));
}

TEST(Kernel, RunStatusNames) {
  EXPECT_EQ(run_status_name(RunStatus::kQuiescent), "quiescent");
  EXPECT_EQ(run_status_name(RunStatus::kTimeout), "timeout");
  EXPECT_EQ(run_status_name(RunStatus::kEventBudget),
            "event budget exhausted");
}

TEST(GateSim, InverterChain) {
  netlist::GateNetlist net("chain");
  const int a = net.add_net("a");
  net.mark_input(a);
  const int b = net.add_gate("INV", netlist::CellFn::kInv, {a}, 0.1, 55);
  const int c = net.add_gate("INV", netlist::CellFn::kInv, {b}, 0.1, 55);
  net.name_net(c, "c");

  Simulator sim(net.num_nets());
  GateBinding binding(net);
  binding.bind(sim);
  binding.settle_initial(sim);
  EXPECT_TRUE(sim.value(b));
  EXPECT_FALSE(sim.value(c));

  sim.schedule(a, true, 0.0);
  EXPECT_TRUE(sim.run());
  EXPECT_FALSE(sim.value(b));
  EXPECT_TRUE(sim.value(c));
  EXPECT_NEAR(sim.now(), 0.2, 1e-9);
}

TEST(GateSim, CElementHolds) {
  netlist::GateNetlist net("c");
  const int a = net.add_net("a");
  const int b = net.add_net("b");
  net.mark_input(a);
  net.mark_input(b);
  const int q = net.add_gate("C2", netlist::CellFn::kCelem, {a, b}, 0.2, 182);

  Simulator sim(net.num_nets());
  GateBinding binding(net);
  binding.bind(sim);
  binding.settle_initial(sim);

  sim.schedule(a, true, 1.0);
  EXPECT_TRUE(sim.run());
  EXPECT_FALSE(sim.value(q)) << "C-element must hold with inputs split";
  sim.schedule(b, true, 1.0);
  EXPECT_TRUE(sim.run());
  EXPECT_TRUE(sim.value(q));
  sim.schedule(a, false, 1.0);
  EXPECT_TRUE(sim.run());
  EXPECT_TRUE(sim.value(q)) << "C-element holds on first falling input";
}

// ---- Gate-level replay of a Burst-Mode specification ----
//
// Drives the mapped controller through every arc of its spec (depth-first
// over the state graph), applying input bursts edge by edge and waiting
// for quiescence; checks that exactly the expected output bursts appear.

class SpecReplayer {
 public:
  SpecReplayer(const bm::Spec& spec,
               const minimalist::SynthesizedController& ctrl,
               const techmap::MapOptions& options)
      : spec_(spec),
        out_arcs_(spec),
        netlist_(techmap::map_controller(ctrl, techmap::CellLibrary::ams035(),
                                         options, spec.name)),
        binding_(netlist_) {
    sim_ = std::make_unique<Simulator>(netlist_.num_nets());
    binding_.bind(*sim_);
    // Seed the one-hot state code, then settle combinational logic with
    // the seeded feedback nets clamped.
    std::vector<int> clamped;
    for (std::size_t s = 0; s < ctrl.state_bits.size(); ++s) {
      const int net = netlist_.net(spec.name + "/" + ctrl.state_bits[s]);
      if (net >= 0) {
        sim_->set_initial(net, ctrl.initial_state_code[s]);
        clamped.push_back(net);
      }
    }
    binding_.settle_initial(*sim_, clamped);
  }

  /// Replays a closed walk covering every arc; returns an error string or
  /// empty on success.
  std::string replay(int max_steps = 400) {
    int state = spec_.initial_state;
    std::set<std::string> pending_arcs;
    for (const auto& arc : spec_.arcs) {
      pending_arcs.insert(key(arc));
    }
    for (int step = 0; step < max_steps && !pending_arcs.empty(); ++step) {
      // Prefer an untaken arc from the current state.
      const bm::Arc* chosen = nullptr;
      for (const bm::Arc* a : out_arcs_.from(state)) {
        if (pending_arcs.count(key(*a))) {
          chosen = a;
          break;
        }
      }
      if (chosen == nullptr) {
        const auto& arcs = out_arcs_.from(state);
        if (arcs.empty()) return "stuck in terminal state";
        chosen = arcs[step % arcs.size()];
      }
      const std::string err = take(*chosen);
      if (!err.empty()) return err;
      pending_arcs.erase(key(*chosen));
      state = chosen->to;
    }
    if (!pending_arcs.empty()) return "not all arcs reachable in walk";
    return "";
  }

 private:
  static std::string key(const bm::Arc& a) {
    return std::to_string(a.from) + ":" + a.in_burst.to_string();
  }

  std::string take(const bm::Arc& arc) {
    // Snapshot output values.
    std::map<std::string, bool> before;
    for (const auto& name : spec_.output_names()) {
      before[name] = sim_->value(netlist_.net(name));
    }
    // Apply the input burst edge by edge.
    for (const auto& t : arc.in_burst.transitions) {
      sim_->schedule(netlist_.net(t.signal), t.rising, 0.05);
      if (!sim_->run()) return "no quiescence during input burst";
    }
    if (!sim_->run()) return "no quiescence after input burst";
    // Every expected output edge must have happened; nothing else.
    std::map<std::string, bool> expected = before;
    for (const auto& t : arc.out_burst.transitions) {
      expected[t.signal] = t.rising;
    }
    for (const auto& [name, value] : expected) {
      if (sim_->value(netlist_.net(name)) != value) {
        return "arc " + std::to_string(arc.from) + "->" +
               std::to_string(arc.to) + ": output " + name + " is " +
               (value ? "0" : "1");
      }
    }
    return "";
  }

  const bm::Spec& spec_;
  bm::OutArcs out_arcs_;
  netlist::GateNetlist netlist_;
  GateBinding binding_;
  std::unique_ptr<Simulator> sim_;
};

void expect_gate_level_replay(const std::string& source,
                              const std::string& name, bool level_separated) {
  const bm::Spec spec = bm::compile(*ch::parse(source), name);
  const auto ctrl = minimalist::synthesize(spec);
  techmap::MapOptions options;
  options.level_separated = level_separated;
  SpecReplayer replayer(spec, ctrl, options);
  const std::string err = replayer.replay();
  EXPECT_TRUE(err.empty()) << name << ": " << err;
}

struct ReplayCase {
  const char* name;
  const char* source;
};

class GateReplay : public ::testing::TestWithParam<ReplayCase> {};

TEST_P(GateReplay, LevelSeparated) {
  expect_gate_level_replay(GetParam().source, GetParam().name, true);
}

TEST_P(GateReplay, WholeCone) {
  expect_gate_level_replay(GetParam().source, GetParam().name, false);
}

INSTANTIATE_TEST_SUITE_P(
    Controllers, GateReplay,
    ::testing::Values(
        ReplayCase{"sequencer",
                   "(rep (enc-early (p-to-p passive P)"
                   " (seq (p-to-p active A1) (p-to-p active A2))))"},
        ReplayCase{"call",
                   "(rep (mutex"
                   " (enc-early (p-to-p passive A1) (p-to-p active B))"
                   " (enc-early (p-to-p passive A2) (p-to-p active B))))"},
        ReplayCase{"passivator",
                   "(rep (enc-middle (p-to-p passive A)"
                   " (p-to-p passive B)))"},
        ReplayCase{"loop",
                   "(enc-early (p-to-p passive a) (rep (p-to-p active b)))"},
        ReplayCase{"concur",
                   "(rep (enc-middle (p-to-p passive a)"
                   " (enc-middle (p-to-p active b1) (p-to-p active b2))))"},
        ReplayCase{"while",
                   "(rep (enc-early (p-to-p passive a)"
                   " (rep (mux-ack g (seq (p-to-p active b))"
                   " (seq (break))))))"},
        ReplayCase{"fig5",
                   "(rep (enc-early (p-to-p passive a)"
                   " (seq (enc-early void (p-to-p active c))"
                   " (enc-early void (p-to-p active c)))))"},
        ReplayCase{"dw_merged",
                   "(rep (enc-early (p-to-p passive a1)"
                   " (mutex (enc-early (p-to-p passive i1)"
                   " (p-to-p active o1))"
                   " (enc-early (p-to-p passive i2)"
                   " (enc-early void (seq (p-to-p active c1)"
                   " (p-to-p active c2)))))))"},
        // Seven-client Call: 22 states, an 8-product state-bit cover —
        // wide enough that the NAND plane needs multi-level collapse.
        // A fuzz-found mapper bug (skewed collapse depths) once turned
        // the y0 feedback loop into a ring oscillator at the handoff
        // back to the idle state; this pins the balanced plane.
        ReplayCase{"call7",
                   "(rep (mutex"
                   " (enc-early (p-to-p passive c1) (p-to-p active k))"
                   " (mutex"
                   " (enc-early (p-to-p passive c2) (p-to-p active k))"
                   " (mutex"
                   " (enc-early (p-to-p passive c3) (p-to-p active k))"
                   " (mutex"
                   " (enc-early (p-to-p passive c4) (p-to-p active k))"
                   " (mutex"
                   " (enc-early (p-to-p passive c5) (p-to-p active k))"
                   " (mutex"
                   " (enc-early (p-to-p passive c6) (p-to-p active k))"
                   " (enc-early (p-to-p passive c7)"
                   " (p-to-p active k)))))))))"}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace bb::sim
