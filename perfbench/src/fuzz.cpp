// fuzz: the differential fuzzer's two oracles over a fixed corpus of
// generated designs — half mini-Balsa procedures, half handshake
// recipes, size 10 — serially (jobs=1).
//
// The corpus is the one bench_fuzz draws at its default generator seed
// (1): per-design cost is heavy-tailed (a few procedures with large
// clustered controllers cost seconds, most cost milliseconds), so a
// corpus drawn per benchmark seed would move wall_s by tens of percent
// between seeds.  The benchmark seed drives the testbench value streams
// instead.  Cases run in campaign order (all procedures, then all
// recipes) through a cache shared by the pass, as in one campaign.
//
// The sim oracle is fuzz::differential_check's: both flows observed
// with fuzz::observe, compared with fuzz::compare_observations, and
// classified by the same rule.  It is driven through those two public
// halves because differential_check itself always synthesizes through
// the process-wide cache; here each pass owns a fresh SynthCache, the
// way one fuzz campaign starts cold and shares its cache across cases.
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "src/balsa/compile.hpp"
#include "src/flow/flow.hpp"
#include "src/fuzz/gen.hpp"
#include "src/fuzz/oracle.hpp"
#include "src/minimalist/cache.hpp"
#include "src/obs/trace.hpp"
#include "src/util/prng.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kCorpusSeed = 1;
constexpr int kCasesPerMode = 30;
constexpr int kSize = 10;
constexpr int kWarmUpCases = 5;

/// The fuzz campaign's case-seed derivation (FNV-1a over the case tag,
/// xor the campaign seed), so case i of a mode is bench_fuzz's case i.
std::uint64_t case_seed(std::uint64_t seed, const std::string& tag) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return seed ^ h;
}

struct Case {
  std::string name;  ///< "balsa:<i>" / "netlist:<i>"
  bb::hsnet::Netlist netlist{""};
};

std::vector<Case> make_corpus() {
  bb::fuzz::GenOptions gen;
  gen.max_commands = kSize;
  std::vector<Case> corpus;
  for (const std::string mode : {"balsa", "netlist"}) {
    for (int i = 0; i < kCasesPerMode; ++i) {
      const std::string name = mode + ":" + std::to_string(i);
      bb::util::SplitMix64 rng(case_seed(kCorpusSeed, name));
      Case c;
      c.name = name;
      c.netlist = mode == "balsa"
                      ? bb::balsa::compile(bb::fuzz::generate_procedure(rng, gen))
                      : bb::fuzz::build_recipe(bb::fuzz::generate_recipe(rng, gen));
      corpus.push_back(std::move(c));
    }
  }
  return corpus;
}

/// fuzz::differential_check with an explicit cache.
bb::fuzz::Verdict differential(const bb::hsnet::Netlist& netlist,
                               std::uint64_t value_seed,
                               bb::minimalist::SynthCache& cache) {
  bb::obs::Span span("fuzz.differential", "perf");
  bb::flow::FlowOptions optimized = bb::flow::FlowOptions::optimized();
  bb::flow::FlowOptions baseline = bb::flow::FlowOptions::unoptimized();
  for (auto* o : {&optimized, &baseline}) {
    o->jobs = 1;
    o->cache_instance = &cache;
  }
  const auto a = bb::fuzz::observe(netlist, optimized, value_seed);
  const auto b = bb::fuzz::observe(netlist, baseline, value_seed);
  if (a.flow_error && b.flow_error) return bb::fuzz::Verdict::kRejected;
  if (!bb::fuzz::compare_observations(a, b).empty()) {
    return bb::fuzz::Verdict::kDiscrepancy;
  }
  return a.completed ? bb::fuzz::Verdict::kPass
                     : bb::fuzz::Verdict::kDiscrepancy;
}

bb::fuzz::Verdict conformance(const bb::hsnet::Netlist& netlist) {
  bb::obs::Span span("fuzz.conformance", "perf");
  return bb::fuzz::conformance_check(netlist).verdict;
}

}  // namespace

void run_fuzz(const Args& args, Result& result) {
  ::setenv("BB_JOBS", "1", 1);
  result.info("jobs", "1");
  result.info("cache", "cold: a fresh SynthCache per pass, shared by its cases");

  // Set-up: generate and compile the corpus, then warm up both oracles
  // on the first recipes (untimed, own cache), so lazy one-time
  // initialisation never lands in a timed case.
  std::vector<Case> corpus;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    corpus = make_corpus();
    bb::minimalist::SynthCache warm_cache;
    for (int k = 0; k < kWarmUpCases; ++k) {
      const Case& c = corpus[kCasesPerMode + k];
      differential(c.netlist, 0, warm_cache);
      conformance(c.netlist);
    }
    result.setup(seconds_since(t0));
  }

  bb::util::SplitMix64 rng(args.seed);
  std::vector<std::uint64_t> value_seeds;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    value_seeds.push_back(rng.next());
  }
  std::map<std::string, int> first_tally;
  result.run_passes([&] {
    // Campaign order, so each case finds the same cache entries from the
    // cases before it in every pass.
    bb::minimalist::SynthCache cache;
    std::vector<bb::fuzz::Verdict> verdicts(corpus.size());
    double pass_s = 0.0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const auto t0 = Clock::now();
      // check_design's merge: a discrepancy or a design both flows
      // reject ends the case; otherwise the conformance verdict counts.
      auto verdict = differential(corpus[i].netlist, value_seeds[i], cache);
      if (verdict == bb::fuzz::Verdict::kPass) {
        verdict = conformance(corpus[i].netlist);
      }
      const double ms = ms_since(t0);
      pass_s += ms / 1000.0;
      verdicts[i] = verdict;
      result.op(corpus[i].name, ms);
    }
    // Outside the timed window.
    std::map<std::string, int> tally;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const std::string name(bb::fuzz::verdict_name(verdicts[i]));
      ++tally[name];
      result.attempt(verdicts[i] != bb::fuzz::Verdict::kDiscrepancy,
                     corpus[i].name + ": discrepancy");
    }
    if (first_tally.empty()) first_tally = tally;
    result.attempt(tally == first_tally,
                   "verdict tally differs from the first pass");
    result.count("fuzz.cases", static_cast<double>(corpus.size()));
    result.count("fuzz.skipped", tally["skipped"]);
    return pass_s;
  });
}

}  // namespace perfbench
