// Incremental-build benchmark: cold build, warm no-op rebuild, and a
// one-procedure edit over examples/pipeline.balsa (compiled in via
// BB_EXAMPLES_DIR), against a throwaway project directory.
//
//   cold   empty project dir — every unit is dirty (the baseline a
//          non-incremental flow pays on every run)
//   warm   identical source — every unit splices from the manifest
//   edit   one procedure changed — exactly one unit resynthesizes
//
// The run cross-checks the correctness contract (warm and edited
// outputs byte-identical to from-scratch rebuilds, dirty set exactly
// one unit after the edit) and prints a table plus a JSON artifact
// (argv[1], default bench_incr.json) with the speedups — CI uploads the
// JSON and fails the job if the contract breaks or the warm rebuild is
// not at least 5x faster than cold.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "src/flow/flow.hpp"
#include "src/incr/build.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/session.hpp"
#include "src/util/io.hpp"
#include "src/util/json.hpp"

#ifndef BB_EXAMPLES_DIR
#error "BB_EXAMPLES_DIR must point at the examples/ source directory"
#endif

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

std::string slurp_or_die(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "bench_incr: cannot read '" << path << "'\n";
    std::exit(1);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct Run {
  double ms = 0.0;
  bb::incr::BuildResult result;
};

Run timed_build(const std::string& source, const std::string& project_dir,
                const bb::flow::FlowOptions& options) {
  const auto start = Clock::now();
  Run run;
  run.result = bb::incr::build(source, project_dir, options);
  run.ms = std::chrono::duration<double, std::milli>(Clock::now() - start)
               .count();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "bench_incr.json";
  bb::obs::Session session(bb::obs::env_or("", "BB_TRACE"),
                           bb::obs::env_or("", "BB_METRICS"));

  const std::string source =
      slurp_or_die(std::string(BB_EXAMPLES_DIR) + "/pipeline.balsa");
  // The "edit": duplicate deliver's ready pulse — a control-structure
  // change, so the unit's controllers genuinely resynthesize.
  const std::string marker = "in -> v ; out <- v ; sync ready";
  const auto at = source.find(marker);
  if (at == std::string::npos) {
    std::cerr << "bench_incr: edit marker not found in pipeline.balsa\n";
    return 1;
  }
  std::string edited = source;
  edited.replace(at, marker.size(),
                 "in -> v ; out <- v ; sync ready ; sync ready");

  const fs::path project =
      fs::temp_directory_path() /
      ("bb_bench_incr_" + std::to_string(::getpid()));
  const fs::path scratch = project.string() + "_scratch";
  fs::remove_all(project);
  fs::remove_all(scratch);

  // No synthesis cache: every build pays for exactly the units it
  // rebuilds, so the scratch reference below is a true cold build.
  const auto options = bb::flow::FlowOptions::optimized();
  const Run cold = timed_build(source, project.string(), options);
  const Run warm = timed_build(source, project.string(), options);
  const Run edit = timed_build(edited, project.string(), options);
  // From-scratch reference for the edited program: the byte-identity
  // oracle the spliced build must match.
  const Run full = timed_build(edited, scratch.string(), options);

  const bool warm_identical = warm.result.verilog == cold.result.verilog &&
                              warm.result.report == cold.result.report;
  const bool edit_identical = edit.result.verilog == full.result.verilog &&
                              edit.result.report == full.result.report;
  const bool dirty_set_exact = edit.result.units_rebuilt == 1 &&
                               edit.result.units_reused ==
                                   edit.result.units.size() - 1;
  const double warm_speedup = warm.ms > 0.0 ? cold.ms / warm.ms : 0.0;
  const double edit_speedup = edit.ms > 0.0 ? full.ms / edit.ms : 0.0;

  std::printf("units %zu | cold %8.3f ms | warm %8.3f ms (%.1fx, %s) | "
              "edit %8.3f ms (%.1fx vs scratch, %zu dirty, %s)\n",
              cold.result.units.size(), cold.ms, warm.ms, warm_speedup,
              warm_identical ? "identical" : "MISMATCH", edit.ms,
              edit_speedup, edit.result.units_rebuilt,
              edit_identical ? "identical" : "MISMATCH");

  bb::util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", bb::obs::kSchemaVersion);
  w.member("units", static_cast<std::int64_t>(cold.result.units.size()));
  w.member("cold_ms", cold.ms);
  w.member("warm_ms", warm.ms);
  w.member("edit_ms", edit.ms);
  w.member("full_ms", full.ms);
  w.member("warm_speedup", warm_speedup);
  w.member("edit_speedup", edit_speedup);
  w.member("edit_units_rebuilt",
           static_cast<std::int64_t>(edit.result.units_rebuilt));
  w.member("edit_units_reused",
           static_cast<std::int64_t>(edit.result.units_reused));
  w.member("edit_controllers_rebuilt", edit.result.controllers_rebuilt);
  w.member("edit_controllers_reused", edit.result.controllers_reused);
  w.member("warm_identical", warm_identical);
  w.member("edit_identical", edit_identical);
  w.member("dirty_set_exact", dirty_set_exact);
  w.key("cold").raw(cold.result.to_json());
  w.key("warm").raw(warm.result.to_json());
  w.key("edit").raw(edit.result.to_json());
  w.end_object();
  bb::util::write_file_atomic(json_path, w.str() + "\n");
  std::printf("wrote %s\n", json_path.c_str());

  fs::remove_all(project);
  fs::remove_all(scratch);

  if (!warm_identical || !edit_identical) {
    std::cerr << "bench_incr: incremental output diverged from a full "
                 "rebuild\n";
    return 1;
  }
  if (!dirty_set_exact) {
    std::cerr << "bench_incr: a one-procedure edit dirtied "
              << edit.result.units_rebuilt << " unit(s)\n";
    return 1;
  }
  if (warm_speedup < 5.0) {
    std::cerr << "bench_incr: warm rebuild only " << warm_speedup
              << "x faster than cold (acceptance floor is 5x)\n";
    return 1;
  }
  return 0;
}
