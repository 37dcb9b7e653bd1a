// The Section 6 benchmark runs: each design is taken through the complete
// flow, simulated with its paper-specified protocol, and measured for
// speed (ns) and area.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "src/flow/flow.hpp"
#include "src/sim/kernel.hpp"

namespace bb::flow {

class System;

struct BenchmarkResult {
  std::string design;
  bool ok = false;         ///< protocol completed and results were correct
  bool completed = false;  ///< protocol completed (ok additionally checks
                           ///< result values; completed && !ok is silent
                           ///< data corruption under fault injection)
  sim::RunStatus status = sim::RunStatus::kQuiescent;  ///< why the run ended
  std::string detail;      ///< failure reason or correctness notes
  double time_ns = 0.0;    ///< the paper's per-design speed metric
  double control_area = 0.0;
  double datapath_area = 0.0;
  double total_area = 0.0;
  int controllers = 0;     ///< final controller count after clustering
  int components = 0;      ///< handshake components before clustering
};

/// Runs one design ("systolic", "wagging", "stack", "ssem").  When set,
/// `before_start` runs after the System is built (synthesis done, all
/// nets known) and before System::start(), so the fault-injection
/// campaign (flow/faultsim.hpp) can attach fault plans and extra monitor
/// processes; anything it references must outlive the call.
BenchmarkResult run_benchmark(
    const std::string& design, const FlowOptions& options,
    const std::function<void(System&)>& before_start = {});

/// A Table 3 row: both flows plus the derived improvement/overhead.
struct Table3Row {
  std::string title;
  BenchmarkResult unoptimized;
  BenchmarkResult optimized;
  double speed_improvement_pct = 0.0;
  double area_overhead_pct = 0.0;
};

Table3Row run_table3_row(const std::string& design);

}  // namespace bb::flow
