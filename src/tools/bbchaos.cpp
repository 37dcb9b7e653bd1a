// bb-chaos — crash-restart chaos campaign driver for bb-served.
//
// Forks the real daemon, arms seed-chosen failpoints (BB_FAILPOINTS) at
// crash sites in the atomic-write, store, and eviction paths, drives
// concurrent client load, kills/restarts the daemon, and asserts the
// three recovery invariants after every cycle: the cache directory
// fully validates, every client-visible reply matches an in-process
// ground-truth synthesis, and the restart is ready within the recovery
// budget.  See src/serve/chaos.hpp.
//
//   bb-chaos --served PATH [--seed N] [--cycles N] [--clients N]
//            [--requests N] [--work-dir DIR] [--recovery-budget-ms N]
//            [--json FILE]
//
// --served defaults to a bb-served binary next to this one.  Exit
// status: 0 campaign passed, 1 failed (or spawn error), 2 usage.
#include <filesystem>
#include <iostream>
#include <string>

#include <unistd.h>

#include "src/serve/chaos.hpp"
#include "src/tools/cli.hpp"

namespace fs = std::filesystem;

int main(int argc, char** argv) {
  bb::serve::ChaosOptions options;
  options.cycles = 10;  // interactive default; CI passes --cycles 50+
  std::string json_path;
  std::string work_dir;
  bb::tools::Cli cli("bb-chaos", "", 0, 0);
  cli.text("--served", "PATH", &options.served_path)
      .integer("--seed", 1, 1ll << 62, &options.seed)
      .integer("--cycles", 1, 100000, &options.cycles)
      .integer("--clients", 1, 256, &options.clients)
      .integer("--requests", 1, 1024, &options.requests_per_client)
      .text("--work-dir", "DIR", &work_dir)
      .integer("--recovery-budget-ms", 100, 3600000,
               &options.recovery_budget_ms)
      .text("--json", "FILE", &json_path);
  cli.parse(argc, argv);

  if (options.served_path.empty()) {
    std::error_code ec;
    const fs::path self = fs::canonical(argv[0], ec);
    if (!ec) {
      options.served_path = (self.parent_path() / "bb-served").string();
    }
  }
  options.work_dir = work_dir.empty()
                         ? "/tmp/bb-chaos-" + std::to_string(::getpid())
                         : work_dir;

  try {
    const bb::serve::ChaosResult result = bb::serve::run_chaos(options);
    std::cout << result.to_text();
    bb::tools::write_json_artifact(json_path, result.to_json());
    if (work_dir.empty()) {
      std::error_code ec;
      fs::remove_all(options.work_dir, ec);
    }
    return result.passed ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bb-chaos: " << e.what() << "\n";
    return 1;
  }
}
