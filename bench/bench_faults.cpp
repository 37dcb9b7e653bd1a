// Fault-injection campaign over the four evaluation designs (see
// src/flow/faultsim.hpp for the fault model and classification).
//
// Prints the per-design detected/tolerated summary and dumps the
// deterministic campaign JSON to argv[1] (default bench_faults.json) —
// CI uploads that file as an artifact.  The JSON carries no wall-clock
// content, so two runs with the same seed (--seed N or BB_SEED) are
// byte-identical.
//
// Exit status: 0 when every design's healthy baseline passed and at
// least one stuck-at fault per design was caught by the trace verifier
// (the campaign's own sanity floor), 1 otherwise.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/flow/faultsim.hpp"
#include "src/minimalist/cache.hpp"
#include "src/obs/session.hpp"
#include "src/util/io.hpp"

int main(int argc, char** argv) {
  std::string json_path = "bench_faults.json";
  bb::flow::CampaignOptions campaign;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      campaign.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "usage: bench_faults [out.json] [--seed N]\n";
      return 2;
    } else {
      json_path = arg;
    }
  }
  bb::obs::Session session(bb::obs::env_or("", "BB_TRACE"),
                           bb::obs::env_or("", "BB_METRICS"));

  const std::vector<std::string> designs{"systolic", "wagging", "stack",
                                         "ssem"};
  bb::minimalist::SynthCache cache;
  bb::flow::FlowOptions options = bb::flow::FlowOptions::optimized();
  options.cache_instance = &cache;
  const auto result =
      bb::flow::run_fault_campaign(designs, options, campaign);

  std::cout << result.to_text();
  bb::util::write_file_atomic(json_path, result.to_json() + "\n");
  std::printf("wrote %s\n", json_path.c_str());

  bool ok = true;
  for (const auto& d : result.designs) {
    if (!d.baseline_ok) {
      std::cerr << "bench_faults: " << d.design
                << ": healthy baseline failed\n";
      ok = false;
    }
    bool trace_hit = false;
    for (const auto& run : d.runs) {
      if (run.outcome == bb::flow::FaultOutcome::kTraceCounterexample &&
          run.kind.rfind("stuck-at", 0) == 0) {
        trace_hit = true;
        break;
      }
    }
    if (!trace_hit) {
      std::cerr << "bench_faults: " << d.design
                << ": no stuck-at fault was caught by the trace verifier\n";
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
