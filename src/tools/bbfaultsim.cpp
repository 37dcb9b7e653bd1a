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
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "src/flow/faultsim.hpp"
#include "src/minimalist/cache.hpp"
#include "src/obs/session.hpp"
#include "src/tools/cli.hpp"

int main(int argc, char** argv) {
  std::string json_path;
  bool unoptimized = false;
  bb::flow::CampaignOptions campaign;
  bb::tools::Cli cli("bb-faultsim", "[design...]", 0,
                     std::numeric_limits<std::size_t>::max(),
                     "built-in designs: systolic wagging stack ssem");
  cli.integer("--seed", 0, std::numeric_limits<long long>::max(),
              &campaign.seed)
      .integer("--stuck-at", 0, 1000000, &campaign.random_stuck_at)
      .integer("--bit-flips", 0, 1000000, &campaign.bit_flips)
      .integer("--delay-runs", 0, 1000000, &campaign.delay_runs)
      .text("--json", "FILE", &json_path)
      .flag("--unoptimized", &unoptimized)
      .observability();
  std::vector<std::string> designs = cli.parse(argc, argv);
  if (designs.empty()) {
    designs = {"systolic", "wagging", "stack", "ssem"};
  }
  bb::obs::Session session(cli.trace_path(), cli.metrics_path());
  bb::flow::FlowOptions options = unoptimized
                                      ? bb::flow::FlowOptions::unoptimized()
                                      : bb::flow::FlowOptions::optimized();

  // The campaign re-synthesizes each design once per faulted run; its
  // own cache keeps that to one synthesis per controller.
  bb::minimalist::SynthCache cache;
  options.cache_instance = &cache;

  try {
    const auto result =
        bb::flow::run_fault_campaign(designs, options, campaign);
    std::cout << result.to_text();
    bb::tools::write_json_artifact(json_path, result.to_json());
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bb-faultsim: " << e.what() << "\n";
    return 1;
  }
}
