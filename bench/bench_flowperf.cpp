// Flow-performance benchmark: serial vs parallel controller synthesis
// and cold vs warm synthesis cache, over the four evaluation designs.
//
// For every design the control partition is synthesized four ways:
//   serial    jobs=1, cache off      (the pre-parallel baseline)
//   parallel  jobs=auto, cache off   (thread-pool speedup only)
//   cold      jobs=auto, fresh cache (first run, all misses)
//   warm      jobs=auto, same cache  (memoized re-run, as the Table 3
//                                     comparison re-synthesizes designs)
// and the run cross-checks that all four produce byte-identical reports
// and gate netlists (the parallel flow's determinism contract).
//
// Results are printed as a table and dumped as JSON (stage timings
// included) to the path given as argv[1], default bench_flowperf.json —
// CI uploads that file as an artifact.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/balsa/compile.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/flow.hpp"
#include "src/minimalist/cache.hpp"
#include "src/netlist/verilog.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/session.hpp"
#include "src/util/io.hpp"
#include "src/util/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string fmt(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

struct Run {
  double ms = 0.0;
  std::string fingerprint;  ///< report + verilog, for identity checks
  bb::flow::StageTimings timings;
};

Run run_flow(const bb::hsnet::Netlist& net, int jobs,
             bb::minimalist::SynthCache* cache) {
  bb::flow::FlowOptions options = bb::flow::FlowOptions::optimized();
  options.jobs = jobs;
  options.cache_instance = cache;
  const auto start = Clock::now();
  const auto result = bb::flow::synthesize_control(net, options);
  Run run;
  run.ms = ms_since(start);
  run.fingerprint =
      bb::flow::report(result) + bb::netlist::to_verilog(result.gates);
  run.timings = result.timings;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "bench_flowperf.json";
  // Tracing/metrics are opt-in via environment (CI sets BB_TRACE so the
  // bench doubles as the trace-artifact producer).
  bb::obs::Session session(bb::obs::env_or("", "BB_TRACE"),
                           bb::obs::env_or("", "BB_METRICS"));
  const int auto_jobs = bb::flow::effective_jobs(bb::flow::FlowOptions{});
  bool all_identical = true;

  bb::util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", bb::obs::kSchemaVersion);
  w.member("jobs", auto_jobs);
  w.key("designs").begin_array();
  for (const auto* design : bb::designs::all_designs()) {
    const auto net = bb::balsa::compile_source(design->source);

    const Run serial = run_flow(net, 1, nullptr);
    const Run parallel = run_flow(net, 0, nullptr);
    bb::minimalist::SynthCache cache;
    const Run cold = run_flow(net, 0, &cache);
    const Run warm = run_flow(net, 0, &cache);

    const bool identical = serial.fingerprint == parallel.fingerprint &&
                           serial.fingerprint == cold.fingerprint &&
                           serial.fingerprint == warm.fingerprint;
    all_identical = all_identical && identical;

    std::printf(
        "%-10s serial %9s ms | parallel(%d) %9s ms | cold %9s ms | "
        "warm %9s ms | cache %llu hit %llu miss | %s\n",
        design->name.c_str(), fmt(serial.ms).c_str(), auto_jobs,
        fmt(parallel.ms).c_str(), fmt(cold.ms).c_str(), fmt(warm.ms).c_str(),
        static_cast<unsigned long long>(warm.timings.cache_hits),
        static_cast<unsigned long long>(warm.timings.cache_misses),
        identical ? "outputs identical" : "OUTPUT MISMATCH");

    w.begin_object();
    w.member("name", design->name);
    w.member("serial_ms", serial.ms);
    w.member("parallel_ms", parallel.ms);
    w.member("cold_ms", cold.ms);
    w.member("warm_ms", warm.ms);
    w.member("warm_cache_hits", warm.timings.cache_hits);
    w.member("warm_cache_misses", warm.timings.cache_misses);
    w.member("identical", identical);
    w.key("serial_timings").raw(serial.timings.to_json());
    w.key("parallel_timings").raw(parallel.timings.to_json());
    w.key("warm_timings").raw(warm.timings.to_json());
    w.end_object();
  }
  w.end_array();
  w.end_object();

  bb::util::write_file_atomic(json_path, w.str() + "\n");
  std::printf("wrote %s\n", json_path.c_str());

  if (!all_identical) {
    std::cerr << "bench_flowperf: parallel/cached output diverged from the "
                 "serial flow\n";
    return 1;
  }
  return 0;
}
