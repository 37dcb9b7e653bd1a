// bb-fuzz — random-program differential fuzzing campaign driver.
//
// Generates seeded random mini-Balsa programs and handshake-component
// netlist recipes, pushes each through the synthesis flow twice
// (clustered vs template baseline), and cross-checks the two circuits
// by gate-level simulation plus trace-theoretic conformance of every
// clustered controller against its composed original.  Discrepancies
// are delta-debugged down to minimized reproducers.
//
// A separate protocol mode (--mode proto) instead fuzzes the untrusted
// byte surfaces — util::parse_json, serve::parse_request and the disk
// cache codec — with seeded malformed input (truncation, depth bombs,
// overlong strings, invalid UTF-8, NULs) and asserts every parser
// rejects with a structured error, never a throw or crash.
//
//   bb-fuzz [--seed N] [--count N] [--size N]
//           [--mode balsa|netlist|both|proto]
//
// Options:
//   --seed N            PRNG seed (default: BB_SEED env var, then 1)
//   --count N           cases per mode (default 100)
//   --size N            generator size budget (default 12)
//   --mode M            balsa | netlist | both | proto (default both)
//   --time-budget-ms N  stop the case loop after N ms (default: unlimited)
//   --max-states N      clustering state cap (default 40)
//   --no-sim            disable the differential simulation oracle
//   --no-conformance    disable the trace-conformance oracle
//   --json FILE         write the campaign JSON artifact (atomic)
//   --repro-dir DIR     write minimized reproducers here
//   --trace FILE        Chrome trace-event JSON (BB_TRACE env fallback)
//   --metrics FILE      metrics snapshot JSON (BB_METRICS env fallback)
//
// Exit status: 0 all cases clean, 1 discrepancy found (or internal
// error), 2 usage.
#include <iostream>
#include <limits>
#include <string>

#include "src/fuzz/campaign.hpp"
#include "src/fuzz/proto.hpp"
#include "src/obs/session.hpp"
#include "src/tools/cli.hpp"

int main(int argc, char** argv) {
  bb::fuzz::FuzzOptions options;
  std::string mode = "both";
  std::string json_path;
  constexpr long long kMax = std::numeric_limits<long long>::max();
  bb::tools::Cli cli("bb-fuzz", "", 0, 0);
  cli.integer("--seed", 0, kMax, &options.seed)
      .integer("--count", 0, 1000000, &options.count)
      .integer("--size", 1, 1000, &options.size)
      .choice("--mode", {"balsa", "netlist", "both", "proto"}, &mode)
      .integer("--time-budget-ms", 0, kMax, &options.time_budget_ms)
      .integer("--max-states", 2, 100000, &options.max_states)
      .flag("--no-sim", &options.sim_oracle, false)
      .flag("--no-conformance", &options.conformance_oracle, false)
      .text("--json", "FILE", &json_path)
      .text("--repro-dir", "DIR", &options.repro_dir)
      .observability();
  cli.parse(argc, argv);
  options.balsa_mode = mode != "netlist";
  options.netlist_mode = mode != "balsa";
  bb::obs::Session session(cli.trace_path(), cli.metrics_path());

  try {
    if (mode == "proto") {
      bb::fuzz::ProtoFuzzOptions popts;
      popts.seed = options.seed;
      popts.count = options.count;
      popts.time_budget_ms = options.time_budget_ms;
      const bb::fuzz::ProtoFuzzResult result = bb::fuzz::run_proto_fuzz(popts);
      std::cout << result.to_text();
      bb::tools::write_json_artifact(json_path, result.to_json());
      return result.violations > 0 ? 1 : 0;
    }
    const bb::fuzz::FuzzResult result = bb::fuzz::run_fuzz_campaign(options);
    std::cout << result.to_text();
    bb::tools::write_json_artifact(json_path, result.to_json());
    return result.discrepancies > 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "bb-fuzz: " << e.what() << "\n";
    return 1;
  }
}
