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
//
// BB_TRACE / BB_METRICS, when set, name a Chrome trace-event JSON and a
// metrics snapshot to write for the run.
//
// Exit status: 0 all cases clean, 1 discrepancy found (or internal
// error), 2 usage.
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "src/fuzz/campaign.hpp"
#include "src/fuzz/proto.hpp"
#include "src/obs/session.hpp"
#include "src/util/io.hpp"
#include "src/util/strings.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: bb-fuzz [--seed N] [--count N] [--size N] "
               "[--mode balsa|netlist|both|proto] [--time-budget-ms N] "
               "[--max-states N] [--no-sim] [--no-conformance] "
               "[--json FILE] [--repro-dir DIR]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  bb::fuzz::FuzzOptions options;
  bool proto_mode = false;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      options.seed = static_cast<std::uint64_t>(
          bb::util::parse_int("bb-fuzz", "--seed", argv[++i], 0,
                              std::numeric_limits<long long>::max()));
    } else if (arg == "--count" && i + 1 < argc) {
      options.count = static_cast<int>(
          bb::util::parse_int("bb-fuzz", "--count", argv[++i], 0, 1000000));
    } else if (arg == "--size" && i + 1 < argc) {
      options.size = static_cast<int>(
          bb::util::parse_int("bb-fuzz", "--size", argv[++i], 1, 1000));
    } else if (arg == "--mode" && i + 1 < argc) {
      const std::string mode = argv[++i];
      if (mode == "balsa") {
        options.netlist_mode = false;
      } else if (mode == "netlist") {
        options.balsa_mode = false;
      } else if (mode == "proto") {
        proto_mode = true;
      } else if (mode != "both") {
        usage();
      }
    } else if (arg == "--time-budget-ms" && i + 1 < argc) {
      options.time_budget_ms =
          bb::util::parse_int("bb-fuzz", "--time-budget-ms", argv[++i], 0,
                              std::numeric_limits<long long>::max());
    } else if (arg == "--max-states" && i + 1 < argc) {
      options.max_states = static_cast<int>(
          bb::util::parse_int("bb-fuzz", "--max-states", argv[++i], 2, 100000));
    } else if (arg == "--no-sim") {
      options.sim_oracle = false;
    } else if (arg == "--no-conformance") {
      options.conformance_oracle = false;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--repro-dir" && i + 1 < argc) {
      options.repro_dir = argv[++i];
    } else {
      usage();
    }
  }
  bb::obs::Session session(bb::obs::env_or("", "BB_TRACE"),
                           bb::obs::env_or("", "BB_METRICS"));

  try {
    if (proto_mode) {
      bb::fuzz::ProtoFuzzOptions popts;
      popts.seed = options.seed;
      popts.count = options.count;
      popts.time_budget_ms = options.time_budget_ms;
      const bb::fuzz::ProtoFuzzResult result = bb::fuzz::run_proto_fuzz(popts);
      std::cout << result.to_text();
      if (!json_path.empty()) {
        bb::util::write_file_atomic(json_path, result.to_json() + "\n");
        std::cout << "wrote " << json_path << "\n";
      }
      return result.violations > 0 ? 1 : 0;
    }
    const bb::fuzz::FuzzResult result = bb::fuzz::run_fuzz_campaign(options);
    std::cout << result.to_text();
    if (!json_path.empty()) {
      bb::util::write_file_atomic(json_path, result.to_json() + "\n");
      std::cout << "wrote " << json_path << "\n";
    }
    return result.discrepancies > 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "bb-fuzz: " << e.what() << "\n";
    return 1;
  }
}
