#include "src/flow/benchmarks.hpp"

#include <stdexcept>
#include <string>

#include "src/balsa/compile.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/system.hpp"
#include "src/flow/testbench.hpp"
#include "src/obs/trace.hpp"

namespace bb::flow {

namespace {

constexpr double kMaxSimNs = 1e7;
constexpr std::uint64_t kMaxEvents = 20'000'000;

/// Failure-detail suffix naming why the simulation stopped, e.g.
/// " [run: event budget exhausted]"; empty on quiescence.
std::string why(sim::RunStatus status) {
  if (status == sim::RunStatus::kQuiescent) return "";
  return " [run: " + std::string(sim::run_status_name(status)) + "]";
}

using BeforeStart = std::function<void(System&)>;

/// Runs `before_start` (when set), then the simulation.
sim::RunStatus launch(System& system, const BeforeStart& before_start) {
  if (before_start) before_start(system);
  return system.start().run_status(kMaxSimNs, kMaxEvents);
}

void fill_common(BenchmarkResult& r, const System& system,
                 const hsnet::Netlist& net) {
  r.control_area = system.control_area();
  r.datapath_area = system.datapath_area();
  r.total_area = system.total_area();
  r.controllers = static_cast<int>(system.control().controllers.size());
  r.components = static_cast<int>(net.components().size());
}

BenchmarkResult bench_systolic(const FlowOptions& options,
                               const BeforeStart& before_start) {
  BenchmarkResult r;
  r.design = "systolic";
  const auto net =
      balsa::compile_source(designs::systolic_counter().source);
  System system(net, options);

  ActivateDriver activate(system, "activate");
  SyncServer count(system, "count");
  SyncServer carry(system, "carry");
  // Steady state: measure the second full 8-handshake cycle (carry 2->3).
  count.enabled = [&] { return carry.completed() < 3; };
  double t2 = 0.0, t3 = 0.0;
  carry.on_cycle = [&](int k, double t) {
    if (k == 2) t2 = t;
    if (k == 3) t3 = t;
  };

  const auto status = launch(system, before_start);
  r.status = status;
  fill_common(r, system, net);
  r.completed = carry.completed() >= 3 && count.completed() >= 24;
  if (!r.completed) {
    r.detail = "cycle did not complete (carry=" +
               std::to_string(carry.completed()) + ")" + why(status);
    return r;
  }
  r.ok = true;
  r.time_ns = t3 - t2;
  r.detail = "8-handshake cycle, steady state";
  return r;
}

BenchmarkResult bench_wagging(const FlowOptions& options,
                              const BeforeStart& before_start) {
  BenchmarkResult r;
  r.design = "wagging";
  const auto net =
      balsa::compile_source(designs::wagging_register().source);
  System system(net, options);

  ActivateDriver activate(system, "activate");
  std::uint64_t next = 0x10;
  PushServer out(system, "out");
  PullServer in(system, "in", [&] { return ++next; });
  in.enabled = [&] { return out.consumed() < 2; };
  bool seen_first = false;
  double first_out = 0.0;
  out.on_data = [&](std::uint64_t, double t) {
    if (!seen_first) {
      seen_first = true;
      first_out = t;
    }
  };

  const auto status = launch(system, before_start);
  r.status = status;
  fill_common(r, system, net);
  r.completed = out.consumed() >= 1 && seen_first;
  if (!r.completed) {
    r.detail = "no output word produced" + why(status);
    return r;
  }
  if (out.values()[0] != 0x11) {
    r.detail = "wrong first word: " + std::to_string(out.values()[0]);
    return r;
  }
  r.ok = true;
  // Forward latency: activation to the first word emerging.
  r.time_ns = first_out - kActivateStartNs;
  r.detail = "forward latency of the first word";
  return r;
}

BenchmarkResult bench_stack(const FlowOptions& options,
                            const BeforeStart& before_start) {
  BenchmarkResult r;
  r.design = "stack";
  const auto net = balsa::compile_source(designs::stack().source);
  System system(net, options);

  ActivateDriver activate(system, "activate");
  const std::vector<std::uint64_t> cmds{1, 1, 1, 0, 0, 0};
  std::size_t cmd_index = 0;
  PullServer cmd(system, "cmd", [&] {
    return cmds[std::min(cmd_index++, cmds.size() - 1)];
  });
  cmd.enabled = [&] { return cmd_index < cmds.size(); };
  const std::vector<std::uint64_t> words{0x11, 0x22, 0x33};
  std::size_t word_index = 0;
  PullServer push(system, "push", [&] {
    return words[std::min(word_index++, words.size() - 1)];
  });
  PushServer pop(system, "pop");

  const auto status = launch(system, before_start);
  r.status = status;
  fill_common(r, system, net);
  r.completed = pop.consumed() >= 3;
  if (!r.completed) {
    r.detail = "pops incomplete: " + std::to_string(pop.consumed()) +
               why(status);
    return r;
  }
  if (pop.values() != std::vector<std::uint64_t>({0x33, 0x22, 0x11})) {
    r.detail = "LIFO order violated";
    return r;
  }
  r.ok = true;
  r.time_ns = pop.last_time() - kActivateStartNs;
  r.detail = "3 pushes + 3 pops, LIFO order checked";
  return r;
}

BenchmarkResult bench_ssem(const FlowOptions& options,
                           const BeforeStart& before_start) {
  BenchmarkResult r;
  r.design = "ssem";
  const auto net = balsa::compile_source(designs::ssem().source);
  System system(net, options);

  ActivateDriver activate(system, "activate");
  SsemMemory memory(system, designs::ssem_benchmark_program());

  const auto status = launch(system, before_start);
  r.status = status;
  fill_common(r, system, net);
  r.completed = activate.done();
  if (!r.completed) {
    r.detail = "program did not reach STP" + why(status);
    return r;
  }
  for (const auto& expect : designs::ssem_expected_results()) {
    if (memory.contents().at(expect.address) != expect.value) {
      r.detail = "mem[" + std::to_string(expect.address) + "] = " +
                 std::to_string(memory.contents().at(expect.address)) +
                 ", expected " + std::to_string(expect.value);
      return r;
    }
  }
  r.ok = true;
  r.time_ns = activate.done_time() - kActivateStartNs;
  r.detail = "stores 0..4 at 20..24; " + std::to_string(memory.reads()) +
             " reads, " + std::to_string(memory.writes()) + " writes";
  return r;
}

}  // namespace

BenchmarkResult run_benchmark(const std::string& design,
                              const FlowOptions& options,
                              const BeforeStart& before_start) {
  obs::Span span("flow.benchmark", obs::kCatFlow);
  span.arg("design", design);
  if (design == "systolic") return bench_systolic(options, before_start);
  if (design == "wagging") return bench_wagging(options, before_start);
  if (design == "stack") return bench_stack(options, before_start);
  if (design == "ssem") return bench_ssem(options, before_start);
  throw std::invalid_argument("unknown design '" + design + "'");
}

Table3Row run_table3_row(const std::string& design) {
  Table3Row row;
  row.title = designs::design(design).title;
  row.unoptimized = run_benchmark(design, FlowOptions::unoptimized());
  row.optimized = run_benchmark(design, FlowOptions::optimized());
  if (row.unoptimized.ok && row.optimized.ok &&
      row.unoptimized.time_ns > 0) {
    row.speed_improvement_pct = 100.0 *
        (row.unoptimized.time_ns - row.optimized.time_ns) /
        row.unoptimized.time_ns;
    row.area_overhead_pct = 100.0 *
        (row.optimized.total_area - row.unoptimized.total_area) /
        row.unoptimized.total_area;
  }
  return row;
}

}  // namespace bb::flow
