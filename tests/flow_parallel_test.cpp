// Determinism and memoization contracts of the parallel synthesis flow:
// the parallel per-controller pipeline must produce byte-identical
// results to the serial one, the synthesis cache must be exact (warm
// results identical to cold), and stage timings must be collected.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/balsa/compile.hpp"
#include "src/bm/compile.hpp"
#include "src/ch/parser.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/flow.hpp"
#include "src/minimalist/cache.hpp"
#include "src/netlist/verilog.hpp"
#include "src/util/thread_pool.hpp"

namespace bb::flow {
namespace {

FlowOptions with(int jobs, minimalist::SynthCache* cache = nullptr) {
  FlowOptions options = FlowOptions::optimized();
  options.jobs = jobs;
  options.cache_instance = cache;
  return options;
}

/// Everything the determinism contract covers, in one comparable string.
std::string fingerprint(const ControlResult& result) {
  std::string s = report(result);
  s += netlist::to_verilog(result.gates);
  s += result.lint_report.to_text();
  for (const auto& prefix : result.prefixes) s += prefix + "\n";
  return s;
}

class ParallelFlow : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelFlow, MatchesSerialByteForByte) {
  const auto net = balsa::compile_source(
      designs::design(GetParam()).source);
  const auto serial = synthesize_control(net, with(1));
  const auto parallel = synthesize_control(net, with(4));
  EXPECT_EQ(report(serial), report(parallel));
  EXPECT_EQ(fingerprint(serial), fingerprint(parallel));
  ASSERT_EQ(serial.info.size(), parallel.info.size());
  for (std::size_t i = 0; i < serial.info.size(); ++i) {
    EXPECT_EQ(serial.info[i].name, parallel.info[i].name);
    EXPECT_EQ(serial.info[i].members, parallel.info[i].members);
  }
}

TEST_P(ParallelFlow, CachedMatchesUncachedAndWarmMatchesCold) {
  const auto net = balsa::compile_source(
      designs::design(GetParam()).source);
  const auto uncached = synthesize_control(net, with(0));

  minimalist::SynthCache cache;
  const auto cold = synthesize_control(net, with(0, &cache));
  const auto warm = synthesize_control(net, with(0, &cache));

  EXPECT_EQ(fingerprint(uncached), fingerprint(cold));
  EXPECT_EQ(fingerprint(cold), fingerprint(warm));

  // Cold run: every controller missed (modulo intra-design duplicates);
  // warm run: every controller hits.
  EXPECT_GT(cold.timings.cache_misses, 0u);
  EXPECT_EQ(warm.timings.cache_misses, 0u);
  EXPECT_EQ(warm.timings.cache_hits,
            static_cast<std::uint64_t>(warm.controllers.size()));
  const auto stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.entries, 0u);
}

TEST_P(ParallelFlow, DefaultOptionsNeverMemoize) {
  // The library owns no cache: without an injected instance two
  // back-to-back flows both synthesize everything and count nothing.
  const auto net = balsa::compile_source(
      designs::design(GetParam()).source);
  for (int run = 0; run < 2; ++run) {
    const auto result = synthesize_control(net, FlowOptions::optimized());
    EXPECT_EQ(result.timings.cache_hits, 0u) << "run " << run;
    EXPECT_EQ(result.timings.cache_misses, 0u) << "run " << run;
    for (const auto& c : result.timings.controllers) {
      EXPECT_FALSE(c.cache_hit) << c.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, ParallelFlow,
                         ::testing::Values("systolic", "wagging", "stack",
                                           "ssem"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(ParallelFlowSuite, UnoptimizedFlowIsDeterministicToo) {
  for (const auto* design : designs::all_designs()) {
    const auto net = balsa::compile_source(design->source);
    FlowOptions serial_opts = FlowOptions::unoptimized();
    serial_opts.jobs = 1;
    FlowOptions parallel_opts = FlowOptions::unoptimized();
    parallel_opts.jobs = 4;
    const auto serial = synthesize_control(net, serial_opts);
    const auto parallel = synthesize_control(net, parallel_opts);
    EXPECT_EQ(fingerprint(serial), fingerprint(parallel)) << design->name;
  }
}

TEST(ParallelFlowSuite, StageTimingsAreCollected) {
  const auto net = balsa::compile_source(designs::ssem().source);
  const auto result = synthesize_control(net, with(0));
  const auto& t = result.timings;
  EXPECT_GT(t.total_ms, 0.0);
  EXPECT_GT(t.controllers_wall_ms, 0.0);
  EXPECT_GT(t.minimalist_ms, 0.0);
  EXPECT_GE(t.jobs, 1);
  EXPECT_EQ(t.controllers.size(), result.controllers.size());
  // Rendering round-trips without throwing and mentions every stage.
  const std::string text = t.to_text();
  for (const char* stage :
       {"to_ch", "cluster", "bm_compile", "minimalist", "techmap", "lint"}) {
    EXPECT_NE(text.find(stage), std::string::npos) << stage;
  }
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"controllers_wall_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
}

TEST(ParallelFlowSuite, StageAggregatesEqualPerControllerSums) {
  // The aggregate per-stage timings are the index-ordered sum of the
  // per-controller values (the merge adds doubles in the same order the
  // test does, so the equality is exact).  This pins the span-derived
  // timings to the same contract the pre-span StageTimings honored.
  const auto net = balsa::compile_source(designs::ssem().source);
  const auto result = synthesize_control(net, with(0));
  const auto& t = result.timings;
  double bm_compile = 0.0, minimalist = 0.0, techmap = 0.0, lint = 0.0;
  for (const auto& c : t.controllers) {
    bm_compile += c.bm_compile_ms;
    minimalist += c.minimalist_ms;
    techmap += c.techmap_ms;
    lint += c.lint_ms;
  }
  EXPECT_DOUBLE_EQ(t.bm_compile_ms, bm_compile);
  EXPECT_DOUBLE_EQ(t.minimalist_ms, minimalist);
  EXPECT_DOUBLE_EQ(t.techmap_ms, techmap);
  // The aggregate lint time also covers the handshake- and gate-level
  // passes, which run outside any controller.
  EXPECT_GE(t.lint_ms, lint);
  // Stage fields sum CPU-style over controllers, so on t.jobs workers they
  // may exceed the call's wall time by up to that factor; a serial run
  // (t.jobs == 1) stays within total_ms.
  EXPECT_LE(t.bm_compile_ms + t.minimalist_ms + t.techmap_ms,
            t.total_ms * t.jobs);
  // to_json stays field-compatible with the pre-observability format.
  const std::string json = t.to_json();
  EXPECT_EQ(json.rfind("{\"schema_version\":", 0), 0u);
  for (const char* field :
       {"\"to_ch_ms\":", "\"cluster_ms\":", "\"bm_compile_ms\":",
        "\"minimalist_ms\":", "\"techmap_ms\":", "\"lint_ms\":",
        "\"controllers_wall_ms\":", "\"total_ms\":", "\"jobs\":",
        "\"cache_hits\":", "\"cache_misses\":", "\"controllers\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
}

TEST(ParallelFlowSuite, ReportOmitsTimingsUnlessAsked) {
  const auto net = balsa::compile_source(designs::wagging_register().source);
  const auto result = synthesize_control(net, with(0));
  EXPECT_EQ(report(result).find("stage timings"), std::string::npos);
  EXPECT_NE(report(result, true).find("stage timings"), std::string::npos);
}

TEST(ParallelFlowSuite, BudgetOutcomeIgnoresEarlierRunsInTheProcess) {
  // A cache hit costs no budgeted work, so a process-wide memo let a
  // budget-free run rescue a later budgeted flow of the same design.
  // With no default cache the degraded/healthy outcome is a function of
  // the design and the budget alone.
  const auto net = balsa::compile_source(designs::design("stack").source);
  FlowOptions tight = FlowOptions::optimized();
  tight.work_budget = 1;
  tight.strict = false;
  const auto before = synthesize_control(net, tight);
  ASSERT_FALSE(before.failures.empty());

  FlowOptions unlimited = FlowOptions::optimized();
  unlimited.work_budget = -1;
  const auto healthy = synthesize_control(net, unlimited);
  EXPECT_TRUE(healthy.failures.empty());

  const auto after = synthesize_control(net, tight);
  ASSERT_EQ(after.failures.size(), before.failures.size());
  for (std::size_t i = 0; i < before.failures.size(); ++i) {
    EXPECT_EQ(after.failures[i].controller, before.failures[i].controller);
  }
  EXPECT_EQ(fingerprint(after), fingerprint(before));
}

TEST(SynthCache, RebindsNamesPositionally) {
  // Two structurally identical controllers with different signal names
  // must share one cache entry, and the rebound hit must match a fresh
  // synthesis of the second spec exactly.
  const char* kShapeA =
      "(rep (enc-early (p-to-p passive pa)"
      " (seq (p-to-p active qa) (p-to-p active ra))))";
  const char* kShapeB =
      "(rep (enc-early (p-to-p passive pb)"
      " (seq (p-to-p active qb) (p-to-p active rb))))";
  const bm::Spec spec_a = bm::compile(*ch::parse(kShapeA), "a");
  const bm::Spec spec_b = bm::compile(*ch::parse(kShapeB), "b");
  ASSERT_EQ(spec_a.to_canonical(), spec_b.to_canonical());

  minimalist::SynthCache cache;
  minimalist::CacheTier tier = minimalist::CacheTier::kMemory;
  const auto first = synthesize_cached(spec_a, minimalist::SynthMode::kSpeed,
                                       cache, nullptr, &tier);
  EXPECT_EQ(tier, minimalist::CacheTier::kMiss);
  const auto second = synthesize_cached(spec_b, minimalist::SynthMode::kSpeed,
                                        cache, nullptr, &tier);
  EXPECT_NE(tier, minimalist::CacheTier::kMiss);

  const auto fresh = minimalist::synthesize(spec_b,
                                            minimalist::SynthMode::kSpeed);
  EXPECT_EQ(second.to_sol(), fresh.to_sol());
  EXPECT_EQ(second.name, "b");
  EXPECT_EQ(second.inputs, fresh.inputs);
  EXPECT_EQ(second.outputs, fresh.outputs);
  EXPECT_EQ(second.initial_state_code, fresh.initial_state_code);
  EXPECT_EQ(second.state_codes, fresh.state_codes);
  EXPECT_NE(first.to_sol(), second.to_sol());  // names differ, logic equal
}

TEST(SynthCache, ModeIsPartOfTheKey) {
  const bm::Spec spec = bm::compile(
      *ch::parse("(rep (enc-early (p-to-p passive a) (p-to-p active b)))"),
      "m");
  minimalist::SynthCache cache;
  minimalist::CacheTier tier = minimalist::CacheTier::kMemory;
  synthesize_cached(spec, minimalist::SynthMode::kSpeed, cache, nullptr,
                    &tier);
  EXPECT_EQ(tier, minimalist::CacheTier::kMiss);
  tier = minimalist::CacheTier::kMemory;
  synthesize_cached(spec, minimalist::SynthMode::kArea, cache, nullptr,
                    &tier);
  EXPECT_EQ(tier, minimalist::CacheTier::kMiss)
      << "area-mode synthesis must not reuse a speed entry";
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ThreadPoolFlow, ErrorsSurfaceAtTheLowestFailingIndex) {
  util::ThreadPool pool(4);
  std::atomic<int> attempted{0};
  try {
    util::parallel_for_index(pool, 16, [&](std::size_t i) {
      ++attempted;
      if (i == 3 || i == 11) {
        throw std::runtime_error("fail " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fail 3");
  }
  EXPECT_EQ(attempted.load(), 16) << "every index must still be attempted";
}

TEST(ThreadPoolFlow, ParallelForCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(8);
  std::vector<std::atomic<int>> counts(1000);
  util::parallel_for_index(pool, counts.size(),
                           [&](std::size_t i) { ++counts[i]; });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << i;
  }
}

TEST(ThreadPoolFlow, SingleWorkerPoolRunsInline) {
  util::ThreadPool pool(1);
  std::set<std::size_t> seen;
  util::parallel_for_index(pool, 10,
                           [&](std::size_t i) { seen.insert(i); });
  EXPECT_EQ(seen.size(), 10u);
}

}  // namespace
}  // namespace bb::flow
