// synth_cold: a designer's compile.  Every op takes one source — a
// paper design or an examples/*.balsa file — from mini-Balsa to the
// report and structural Verilog, serially (jobs=1) through a fresh
// SynthCache, so every op pays full Burst-Mode synthesis.  The seed
// only shuffles the op order of each pass; the work is fixed.
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "src/balsa/compile.hpp"
#include "src/balsa/parser.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/benchmarks.hpp"
#include "src/flow/flow.hpp"
#include "src/minimalist/cache.hpp"
#include "src/netlist/verilog.hpp"
#include "src/obs/trace.hpp"
#include "src/util/hash.hpp"
#include "src/util/prng.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

struct Op {
  std::string name;    ///< design id, or the example's file stem
  std::string source;  ///< mini-Balsa text (one or more procedures)
  bool paper = false;  ///< one of the four Section 6 designs
};

std::vector<Op> load_ops(const std::string& root) {
  std::vector<Op> ops;
  for (const auto* d : bb::designs::all_designs()) {
    ops.push_back({d->name, d->source, true});
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(root + "/examples")) {
    if (entry.path().extension() == ".balsa") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& f : files) {
    ops.push_back({f.stem().string(), read_file(f.string()), false});
  }
  // Parse everything once, so a malformed corpus fails before timing.
  for (const Op& op : ops) bb::balsa::parse_program(op.source);
  return ops;
}

std::map<std::string, std::string> load_golden(const std::string& path) {
  std::map<std::string, std::string> golden;
  std::istringstream in(read_file(path));
  std::string name, hex;
  while (in >> name >> hex) golden[name] = hex;
  return golden;
}

/// Balsa source -> report + Verilog for every procedure of `op`, the
/// way bbbc renders a multi-unit program.
std::string compile_op(const Op& op, bb::minimalist::SynthCache& cache) {
  bb::flow::FlowOptions options = bb::flow::FlowOptions::optimized();
  options.jobs = 1;
  options.cache_instance = &cache;
  std::vector<bb::balsa::Procedure> procedures;
  {
    bb::obs::Span span("balsa.compile", "perf");
    procedures = bb::balsa::parse_program(op.source);
  }
  const bool multi = procedures.size() > 1;
  std::string out;
  for (const auto& procedure : procedures) {
    bb::hsnet::Netlist net("");
    {
      bb::obs::Span span("balsa.compile", "perf");
      net = bb::balsa::compile(procedure);
    }
    auto result = bb::flow::synthesize_control(net, options);
    if (multi) {
      out += "== unit " + procedure.name + " ==\n";
      result.gates.set_name(procedure.name);
    }
    out += bb::flow::report(result);
    bb::obs::Span span("netlist.verilog", "perf");
    out += bb::netlist::to_verilog(result.gates);
  }
  return out;
}

}  // namespace

void run_synth_cold(const Args& args, Result& result) {
  result.info("jobs", "1");
  result.info("cache", "cold: a fresh SynthCache per op");

  // Set-up: load and parse the corpus, then one untimed warm-up compile
  // of every op but the two hfmin-bound designs, so lazy one-time
  // initialisation (cell library, code pages, allocator arenas) never
  // lands in a timed op.
  std::vector<Op> ops;
  std::map<std::string, std::string> golden;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    ops = load_ops(args.root);
    golden = load_golden(args.root + "/perfbench/golden/synth_cold.txt");
    for (const Op& op : ops) {
      if (op.name == "stack" || op.name == "ssem") continue;
      bb::minimalist::SynthCache cache;
      compile_op(op, cache);
    }
    result.setup(seconds_since(t0));
  }

  bb::util::SplitMix64 rng(args.seed);
  // The last pass's cache per paper design, reused by the testbench
  // check after the timed phase.
  std::map<std::string, std::unique_ptr<bb::minimalist::SynthCache>> caches;
  result.run_passes([&] {
    const auto order = shuffled_order(ops.size(), rng);
    std::vector<std::string> outputs(ops.size());
    double pass_s = 0.0;
    for (const std::size_t i : order) {
      auto cache = std::make_unique<bb::minimalist::SynthCache>();
      const auto t0 = Clock::now();
      try {
        outputs[i] = compile_op(ops[i], *cache);
      } catch (const std::exception& e) {
        outputs[i] = std::string("error: ") + e.what();
      }
      const double ms = ms_since(t0);
      pass_s += ms / 1000.0;
      result.op(ops[i].name, ms);
      result.sample("compile_ms." + ops[i].name, ms);
      if (ops[i].paper) caches[ops[i].name] = std::move(cache);
    }
    // Outside the timed window: every output against its golden digest.
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::string got = bb::util::content_digest(outputs[i]);
      const auto it = golden.find(ops[i].name);
      const bool ok = it != golden.end() && it->second == got;
      result.attempt(ok, ops[i].name + ": digest " + got + " != golden");
    }
    return pass_s;
  });

  // Each paper design must still pass its own testbench.
  for (const auto* d : bb::designs::all_designs()) {
    bb::flow::FlowOptions options = bb::flow::FlowOptions::optimized();
    options.jobs = 1;
    options.cache_instance = caches.at(d->name).get();
    const auto bench = bb::flow::run_benchmark(d->name, options);
    result.attempt(bench.ok, d->name + ": testbench failed: " + bench.detail);
  }
}

}  // namespace perfbench
