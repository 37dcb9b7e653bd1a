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
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/balsa/compile.hpp"
#include "src/balsa/parser.hpp"
#include "src/bm/compile.hpp"
#include "src/ch/printer.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/benchmarks.hpp"
#include "src/flow/flow.hpp"
#include "src/hsnet/to_ch.hpp"
#include "src/incr/build.hpp"
#include "src/minimalist/cache.hpp"
#include "src/netlist/verilog.hpp"
#include "src/obs/session.hpp"
#include "src/opt/cluster.hpp"
#include "src/util/strings.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr
      << "usage: bbbc <netlist|ch|bms|sol|verilog|report|bench> "
         "<file.balsa|design> [--unoptimized] [--max-states N] "
         "[--jobs N] [--no-cache] [--incremental] [--project-dir DIR] "
         "[--trace FILE] [--metrics FILE]\n"
         "built-in designs: systolic wagging stack ssem\n";
  std::exit(2);
}

std::string load_source(const std::string& arg) {
  for (const auto* d : bb::designs::all_designs()) {
    if (d->name == arg) return d->source;
  }
  std::ifstream file(arg);
  if (!file) {
    std::cerr << "bbbc: cannot open '" << arg
              << "' (and it is not a built-in design)\n";
    std::exit(1);
  }
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string command = argv[1];
  const std::string target = argv[2];

  bb::flow::FlowOptions options = bb::flow::FlowOptions::optimized();
  std::string trace_path;
  std::string metrics_path;
  std::string project_dir;
  if (const char* dir = std::getenv(bb::incr::kProjectDirEnv)) {
    project_dir = dir;
  }
  bool incremental = false;
  bool no_cache = false;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--unoptimized") {
      options = bb::flow::FlowOptions::unoptimized();
    } else if (flag == "--incremental") {
      incremental = true;
    } else if (flag == "--project-dir" && i + 1 < argc) {
      project_dir = argv[++i];
    } else if (flag == "--max-states" && i + 1 < argc) {
      options.max_states = static_cast<int>(
          bb::util::parse_int("bbbc", "--max-states", argv[++i], 0, 1000000));
    } else if (flag == "--jobs" && i + 1 < argc) {
      options.jobs = static_cast<int>(
          bb::util::parse_int("bbbc", "--jobs", argv[++i], 0, 4096));
    } else if (flag == "--no-cache") {
      no_cache = true;
    } else if (flag == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (flag == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      usage();
    }
  }
  bb::obs::Session session(bb::obs::env_or(trace_path, "BB_TRACE"),
                           bb::obs::env_or(metrics_path, "BB_METRICS"));
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
      usage();
    }

    if (incremental) {
      if (command != "verilog" && command != "report") {
        std::cerr << "bbbc: --incremental supports the verilog and report "
                     "commands\n";
        return 2;
      }
      if (project_dir.empty()) {
        std::cerr << "bbbc: --incremental needs --project-dir (or the "
                  << bb::incr::kProjectDirEnv << " environment variable)\n";
        return 2;
      }
      const auto result =
          bb::incr::build(load_source(target), project_dir, options);
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

    const auto procedures = bb::balsa::parse_program(load_source(target));
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
