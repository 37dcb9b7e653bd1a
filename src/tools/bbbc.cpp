// bbbc — the Balsa Burst-Mode Back-end Compiler driver.
//
// Runs any stage of the Fig. 1 flow on a mini-Balsa source file or one of
// the built-in evaluation designs:
//
//   bbbc netlist  <file|design>   handshake-component netlist (balsa-c out)
//   bbbc ch       <file|design>   CH programs before and after clustering
//   bbbc bms      <file|design>   Burst-Mode specs of the final controllers
//   bbbc sol      <file|design>   synthesized two-level logic (.sol style)
//   bbbc verilog  <file|design>   mapped control netlist, structural Verilog
//   bbbc report   <file|design>   controller/area report for both flows
//   bbbc bench    <design>        run the design's Table 3 benchmark row
//
// A source file may declare several procedures; every stage then runs
// per procedure (units), with a "== unit NAME ==" header separating the
// outputs.
//
// Options: --unoptimized (template baseline instead of the clustered
// back-end), --max-states N, --jobs N (controller-synthesis worker
// threads; 0 = auto), --no-cache (no synthesis memo; by default the
// run owns one cache shared by all of its units),
// --incremental (verilog/report only: build through the persistent
// project graph in src/incr, reusing unchanged units),
// --project-dir DIR (the project directory for --incremental;
// BB_PROJECT_DIR env fallback),
// --trace FILE (Chrome trace-event JSON; BB_TRACE env fallback),
// --metrics FILE (metrics snapshot JSON; BB_METRICS env fallback).
#include <iostream>
#include <string>

#include "src/balsa/compile.hpp"
#include "src/balsa/parser.hpp"
#include "src/bm/compile.hpp"
#include "src/ch/printer.hpp"
#include "src/flow/benchmarks.hpp"
#include "src/flow/flow.hpp"
#include "src/hsnet/to_ch.hpp"
#include "src/incr/build.hpp"
#include "src/minimalist/cache.hpp"
#include "src/netlist/verilog.hpp"
#include "src/obs/session.hpp"
#include "src/opt/cluster.hpp"
#include "src/tools/cli.hpp"

int main(int argc, char** argv) {
  bool unoptimized = false;
  bool incremental = false;
  bool no_cache = false;
  bb::flow::FlowOptions tuning;  // --max-states and --jobs land here
  std::string project_dir;
  bb::tools::Cli cli(
      "bbbc", "<netlist|ch|bms|sol|verilog|report|bench> <file.balsa|design>",
      2, 2, "built-in designs: systolic wagging stack ssem");
  cli.flag("--unoptimized", &unoptimized)
      .integer("--max-states", 0, 1000000, &tuning.max_states)
      .integer("--jobs", 0, 4096, &tuning.jobs)
      .flag("--no-cache", &no_cache)
      .flag("--incremental", &incremental)
      .text("--project-dir", "DIR", &project_dir, bb::incr::kProjectDirEnv)
      .observability();
  const auto operands = cli.parse(argc, argv);
  const std::string& command = operands[0];
  const std::string& target = operands[1];

  bb::flow::FlowOptions options = unoptimized
                                      ? bb::flow::FlowOptions::unoptimized()
                                      : bb::flow::FlowOptions::optimized();
  options.max_states = tuning.max_states;
  options.jobs = tuning.jobs;
  bb::obs::Session session(cli.trace_path(), cli.metrics_path());
  bb::minimalist::SynthCache cache;
  if (!no_cache) options.cache_instance = &cache;

  try {
    if (command == "bench") {
      const auto row = bb::flow::run_table3_row(target);
      std::cout << row.title << "\n  unoptimized: " << row.unoptimized.time_ns
                << " ns, area " << row.unoptimized.total_area << " ("
                << row.unoptimized.detail << ")\n  optimized:   "
                << row.optimized.time_ns << " ns, area "
                << row.optimized.total_area << " (" << row.optimized.detail
                << ")\n  improvement " << row.speed_improvement_pct
                << " %, area overhead " << row.area_overhead_pct << " %\n";
      return row.unoptimized.ok && row.optimized.ok ? 0 : 1;
    }

    if (command != "netlist" && command != "ch" && command != "bms" &&
        command != "sol" && command != "verilog" && command != "report") {
      cli.fail("unknown command '" + command + "'");
    }

    if (incremental) {
      if (command != "verilog" && command != "report") {
        cli.fail("--incremental supports the verilog and report commands");
      }
      if (project_dir.empty()) {
        cli.fail(std::string("--incremental needs --project-dir (or the ") +
                 bb::incr::kProjectDirEnv + " environment variable)");
      }
      const auto result = bb::incr::build(
          bb::tools::load_design("bbbc", target), project_dir, options);
      if (command == "verilog") {
        std::cout << result.verilog;
      } else {
        std::cout << result.report;
        std::cout << "incremental: " << result.units_rebuilt
                  << " unit(s) rebuilt, " << result.units_reused
                  << " reused";
        if (result.full_rebuild) {
          std::cout << " (full rebuild: " << result.full_rebuild_reason
                    << ")";
        }
        std::cout << "\n" << result.timings.to_text();
      }
      return 0;
    }

    const auto procedures =
        bb::balsa::parse_program(bb::tools::load_design("bbbc", target));
    const bool multi = procedures.size() > 1;
    for (const auto& procedure : procedures) {
      if (multi) std::cout << "== unit " << procedure.name << " ==\n";
      const auto net = bb::balsa::compile(procedure);

      if (command == "netlist") {
        std::cout << net.to_string();
      } else if (command == "ch") {
        std::cout << "-- CH programs (Balsa-to-CH):\n";
        auto programs = bb::hsnet::control_programs(net);
        for (const auto& p : programs) {
          std::cout << p.name << ":\n"
                    << bb::ch::to_pretty_string(*p.body, 1) << "\n";
        }
        bb::opt::ClusterOptions copts;
        copts.max_states = options.max_states;
        bb::opt::ClusterStats stats;
        const auto clustered =
            bb::opt::optimize(std::move(programs), copts, &stats);
        std::cout << "\n-- after clustering (" << clustered.size()
                  << " controllers):\n";
        for (const auto& line : stats.log) std::cout << "   " << line << "\n";
        for (const auto& c : clustered) {
          std::cout << c.program.name << ":\n"
                    << bb::ch::to_pretty_string(*c.program.body, 1) << "\n";
        }
      } else if (command == "bms" || command == "sol") {
        bb::opt::ClusterOptions copts;
        copts.max_states = options.max_states;
        auto clustered =
            options.cluster
                ? bb::opt::optimize(bb::hsnet::control_programs(net), copts,
                                    nullptr)
                : bb::opt::wrap(bb::hsnet::control_programs(net));
        for (const auto& c : clustered) {
          const auto spec = bb::bm::compile(*c.program.body, c.program.name);
          if (command == "bms") {
            std::cout << spec.to_bms() << "\n";
          } else {
            std::cout
                << bb::minimalist::synthesize(spec, options.mode).to_sol()
                << "\n";
          }
        }
      } else {
        auto result = bb::flow::synthesize_control(net, options);
        if (multi) result.gates.set_name(procedure.name);
        if (command == "verilog") {
          std::cout << bb::netlist::to_verilog(result.gates);
        } else {
          std::cout << bb::flow::report(result, /*with_timings=*/true);
          for (const auto& line : result.cluster_stats.log) {
            std::cout << "  " << line << "\n";
          }
        }
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bbbc: " << e.what() << "\n";
    return 1;
  }
}
