// bb_perfbench: runs one benchmark workload and prints its raw
// measurements as one JSON line (perfbench/run.py builds this binary,
// runs it, and turns that line into the benchmark's metrics).
//
//   bb_perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//
// Run it from the checkout root.  Caches, projects and traces go to
// .bench_build/perfbench-work, emptied at start.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"
#include "src/obs/session.hpp"

namespace {

int usage() {
  std::cerr << "usage: bb_perfbench --workload synth_cold|serve_mixed|fuzz "
               "--seed N --seconds S [--trace 0|1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || args.seconds <= 0) {
    return usage();
  }
  std::filesystem::remove_all(args.work_dir);
  std::filesystem::create_directories(args.work_dir);

  // As the repo's tools do: pool queue-wait and run-time histograms.
  bb::obs::install_thread_pool_instrumentation();
  perfbench::Result result(args);
  result.info("build_type", BB_BUILD_TYPE);
  try {
    if (args.workload == "synth_cold") {
      perfbench::run_synth_cold(args, result);
    } else if (args.workload == "serve_mixed") {
      perfbench::run_serve_mixed(args, result);
    } else if (args.workload == "fuzz") {
      perfbench::run_fuzz(args, result);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "bb_perfbench: " << args.workload << ": " << e.what()
              << "\n";
    return 1;
  }
  std::cout << result.to_json() << std::endl;
  return 0;
}
