// bb-faultsim — gate-level fault-injection campaign driver.
//
// Sweeps a deterministic fault list (stuck-at, SEU bit flips, delay
// perturbation; see src/flow/faultsim.hpp) across one or more of the
// built-in evaluation designs and classifies every run as detected
// (deadlock, hang, wrong output, or trace-verifier counterexample) or
// silently tolerated.
//
//   bb-faultsim [design...]        default: all four designs
//
// Options:
//   --seed N         PRNG seed (default: BB_SEED env var, then 1)
//   --stuck-at N     random stuck-at faults per design (default 4)
//   --bit-flips N    SEU bit flips per design (default 3)
//   --delay-runs N   delay-perturbation runs per design (default 1)
//   --json FILE      also write the campaign JSON artifact (atomic)
//   --unoptimized    template baseline flow instead of the clustered one
//   --trace FILE     Chrome trace-event JSON (BB_TRACE env fallback)
//   --metrics FILE   metrics snapshot JSON (BB_METRICS env fallback)
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "src/flow/faultsim.hpp"
#include "src/minimalist/cache.hpp"
#include "src/obs/session.hpp"
#include "src/util/io.hpp"
#include "src/util/strings.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: bb-faultsim [design...] [--seed N] [--stuck-at N] "
               "[--bit-flips N] [--delay-runs N] [--json FILE] "
               "[--unoptimized] [--trace FILE] [--metrics FILE]\n"
               "built-in designs: systolic wagging stack ssem\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> designs;
  std::string json_path;
  std::string trace_path;
  std::string metrics_path;
  bb::flow::CampaignOptions campaign;
  bb::flow::FlowOptions options = bb::flow::FlowOptions::optimized();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      campaign.seed = static_cast<std::uint64_t>(bb::util::parse_int(
          "bb-faultsim", "--seed", argv[++i], 0,
          std::numeric_limits<long long>::max()));
    } else if (arg == "--stuck-at" && i + 1 < argc) {
      campaign.random_stuck_at = static_cast<int>(
          bb::util::parse_int("bb-faultsim", "--stuck-at", argv[++i], 0, 1000000));
    } else if (arg == "--bit-flips" && i + 1 < argc) {
      campaign.bit_flips = static_cast<int>(
          bb::util::parse_int("bb-faultsim", "--bit-flips", argv[++i], 0, 1000000));
    } else if (arg == "--delay-runs" && i + 1 < argc) {
      campaign.delay_runs = static_cast<int>(
          bb::util::parse_int("bb-faultsim", "--delay-runs", argv[++i], 0, 1000000));
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--unoptimized") {
      options = bb::flow::FlowOptions::unoptimized();
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      usage();
    } else {
      designs.push_back(arg);
    }
  }
  if (designs.empty()) {
    designs = {"systolic", "wagging", "stack", "ssem"};
  }
  bb::obs::Session session(bb::obs::env_or(trace_path, "BB_TRACE"),
                           bb::obs::env_or(metrics_path, "BB_METRICS"));

  // The campaign re-synthesizes each design once per faulted run; its
  // own cache keeps that to one synthesis per controller.
  bb::minimalist::SynthCache cache;
  options.cache_instance = &cache;

  try {
    const auto result =
        bb::flow::run_fault_campaign(designs, options, campaign);
    std::cout << result.to_text();
    if (!json_path.empty()) {
      bb::util::write_file_atomic(json_path, result.to_json() + "\n");
      std::cout << "wrote " << json_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bb-faultsim: " << e.what() << "\n";
    return 1;
  }
}
