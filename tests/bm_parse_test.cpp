// .bms parsing and round-tripping, plus Burst-Mode state minimization.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/bm/compile.hpp"
#include "src/bm/parse.hpp"
#include "src/bm/validate.hpp"
#include "src/ch/parser.hpp"
#include "src/minimalist/statemin.hpp"
#include "src/minimalist/synth.hpp"

// The largest single allocation made while g_track is set, for tests
// that bound a kernel's memory.
namespace {
std::atomic<bool> g_track{false};
std::atomic<std::size_t> g_largest{0};

[[gnu::noinline]] void note_allocation(std::size_t size) {
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest && !g_largest.compare_exchange_weak(largest, size)) {
  }
}
}  // namespace

void* operator new(std::size_t size) {
  if (g_track.load(std::memory_order_relaxed)) note_allocation(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (g_track.load(std::memory_order_relaxed)) note_allocation(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
// Out of line, so GCC does not pair an inlined free() with the
// operator new call it cannot see into (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace bb::bm {
namespace {

TEST(ParseBms, RoundTripSequencer) {
  const Spec original = compile(
      *ch::parse("(rep (enc-early (p-to-p passive P)"
                 " (seq (p-to-p active A1) (p-to-p active A2))))"),
      "sequencer");
  const Spec parsed = parse_bms(original.to_bms());
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_EQ(parsed.num_states, original.num_states);
  ASSERT_EQ(parsed.arcs.size(), original.arcs.size());
  for (std::size_t i = 0; i < parsed.arcs.size(); ++i) {
    EXPECT_EQ(parsed.arcs[i].from, original.arcs[i].from);
    EXPECT_EQ(parsed.arcs[i].to, original.arcs[i].to);
    EXPECT_TRUE(parsed.arcs[i].in_burst == original.arcs[i].in_burst);
    EXPECT_TRUE(parsed.arcs[i].out_burst == original.arcs[i].out_burst);
  }
  EXPECT_EQ(parsed.is_input, original.is_input);
  EXPECT_TRUE(validate(parsed).ok);
}

TEST(ParseBms, HandwrittenSpec) {
  const Spec spec = parse_bms(R"(
# a trivial wire
name wire
input a_r 0
output a_a 0
0 1 a_r+ | a_a+
1 0 a_r- | a_a-
)");
  EXPECT_EQ(spec.name, "wire");
  EXPECT_EQ(spec.num_states, 2);
  EXPECT_TRUE(validate(spec).ok);
  // Parsed machines are synthesizable like compiled ones.
  const auto ctrl = minimalist::synthesize(spec);
  EXPECT_TRUE(minimalist::validate_against_spec(ctrl, spec).ok);
}

TEST(ParseBms, EmptyOutputBurst) {
  const Spec spec = parse_bms(
      "name t\n0 1 a_r+ | b_r+\n1 2 a_r- | \n2 0 c_r+ c_r- | b_r-\n");
  ASSERT_EQ(spec.arcs.size(), 3u);
  EXPECT_TRUE(spec.arcs[1].out_burst.empty());
  EXPECT_EQ(spec.arcs[2].in_burst.size(), 2u);
}

TEST(ParseBms, Errors) {
  EXPECT_THROW(parse_bms(""), BmsParseError);
  EXPECT_THROW(parse_bms("name x\n0 1 a_r+\n"), BmsParseError);  // no '|'
  EXPECT_THROW(parse_bms("name x\n0 1 bogus | a_a+\n"), BmsParseError);
  EXPECT_THROW(parse_bms("name x\nz 1 a_r+ | \n"), BmsParseError);
}

// ---- state minimization ----

TEST(ValidateBms, SparseStateNumbersCostEnteredStatesOnly) {
  // One arc from state 0 to state 4000 over 4000 input wires: states
  // 1..3999 are unreachable.  Validation's memory must follow the two
  // states it enters, not the range of state numbers times the wires (a
  // dense entry-valuation table here is one 16 MB allocation).
  constexpr int kTarget = 4000;
  constexpr int kWires = 4000;
  std::string text = "name sparse\n0 " + std::to_string(kTarget);
  for (int i = 0; i < kWires; ++i) text += " s" + std::to_string(i) + "+";
  text += " |\n";
  const Spec spec = parse_bms(text);

  g_largest = 0;
  g_track = true;
  const ValidationResult result = validate(spec);
  g_track = false;

  std::vector<std::string> unreachable;
  for (const lint::Diagnostic& d : result.report.diagnostics()) {
    EXPECT_EQ(d.rule, "BM007") << d.object << ": " << d.message;
    unreachable.push_back(d.object);
  }
  ASSERT_EQ(unreachable.size(), static_cast<std::size_t>(kTarget - 1));
  EXPECT_EQ(unreachable.front(), "state 1");
  EXPECT_EQ(unreachable.back(), "state " + std::to_string(kTarget - 1));
  EXPECT_LT(g_largest.load(), std::size_t{1} << 20);
}

TEST(StateMin, CollapsesDuplicatedChoiceContinuations) {
  // mutex with two alternatives whose *entire* behaviour is identical
  // (same channel b): the compiler duplicates the continuation per
  // branch; the quotient collapses the copies.
  const Spec spec = compile(
      *ch::parse("(rep (enc-early (p-to-p passive p)"
                 " (mutex (enc-early (p-to-p passive i) (p-to-p active b))"
                 "        (enc-early (p-to-p passive i) (p-to-p active b)))))"),
      "dup");
  const auto result = minimalist::minimize_states(spec);
  EXPECT_GT(result.merged_states, 0);
  EXPECT_TRUE(validate(result.spec).ok);
  EXPECT_LT(result.spec.num_states, spec.num_states);
}

TEST(StateMin, DistinctBehavioursAreNotMerged) {
  const Spec spec = compile(
      *ch::parse("(rep (enc-early (p-to-p passive P)"
                 " (seq (p-to-p active A1) (p-to-p active A2))))"),
      "sequencer");
  const auto result = minimalist::minimize_states(spec);
  EXPECT_EQ(result.merged_states, 0);
  EXPECT_EQ(result.spec.num_states, spec.num_states);
  EXPECT_EQ(result.spec.arcs.size(), spec.arcs.size());
}

TEST(StateMin, QuotientStaysSynthesizable) {
  const Spec spec = compile(
      *ch::parse("(rep (enc-early (p-to-p passive p)"
                 " (mutex (enc-early (p-to-p passive i) (p-to-p active b))"
                 "        (enc-early (p-to-p passive i) (p-to-p active b)))))"),
      "dup");
  const auto result = minimalist::minimize_states(spec);
  const auto ctrl = minimalist::synthesize(result.spec);
  const auto report = minimalist::validate_against_spec(ctrl, result.spec);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors[0]);
}

TEST(StateMin, CallMachineKeepsItsSevenStates) {
  // The call's two branches use different channels: nothing merges.
  const Spec spec = compile(
      *ch::parse("(rep (mutex"
                 " (enc-early (p-to-p passive A1) (p-to-p active B))"
                 " (enc-early (p-to-p passive A2) (p-to-p active B))))"),
      "call");
  const auto result = minimalist::minimize_states(spec);
  EXPECT_EQ(result.spec.num_states, 7);
}

}  // namespace
}  // namespace bb::bm
