// Trace-theory verification (Section 4.3): conformation equivalence of
// clustered controllers against the composed+hidden originals, swept over
// the legal operator combinations as in the paper's experiment.
#include <gtest/gtest.h>

#include <random>

#include "src/ch/parser.hpp"
#include "src/ch/printer.hpp"
#include "src/opt/cluster.hpp"
#include "src/opt/ch_util.hpp"
#include "src/petri/from_ch.hpp"
#include "src/trace/automaton.hpp"
#include "src/trace/spec_lts.hpp"
#include "src/trace/verify.hpp"
#include "tests/reference_trace.hpp"

namespace bb::trace {
namespace {

TEST(Dfa, DeterminizeCollapsesTau) {
  petri::Lts lts;
  lts.num_states = 3;
  lts.edges = {{0, 1, ""}, {1, 2, "a+"}};
  const Dfa dfa = determinize(lts);
  EXPECT_EQ(dfa.num_states, 2);
  EXPECT_TRUE(dfa.delta.count({0, "a+"}));
}

TEST(Dfa, DeterminizeAcceptsStatesPastNumStates) {
  // Hand-built: num_states undercounts the ids the edges name.
  petri::Lts lts;
  lts.num_states = 1;
  lts.edges = {{0, 3, "a+"}, {3, 5, ""}, {5, 0, "b+"}, {3, 4, "b+"}};
  const Dfa dfa = determinize(lts);
  EXPECT_EQ(dfa.num_states, 3);
  EXPECT_EQ(dfa.initial, 0);
  const std::map<std::pair<int, std::string>, int> want = {
      {{0, "a+"}, 1}, {{1, "b+"}, 2}, {{2, "a+"}, 1}};
  EXPECT_EQ(dfa.delta, want);
}

TEST(Dfa, DeterminizeMergesConvergingEdges) {
  // {1,2} and {4} both move to {3} on b+: one DFA state, however many
  // edges of the subset lead there.
  petri::Lts lts;
  lts.num_states = 5;
  lts.edges = {{0, 1, "a+"}, {0, 2, "a+"}, {1, 3, "b+"},
               {2, 3, "b+"}, {0, 4, "c+"}, {4, 3, "b+"}};
  const Dfa dfa = determinize(lts);
  EXPECT_EQ(dfa.num_states, 4);
  EXPECT_EQ(dfa.delta.at({1, "b+"}), dfa.delta.at({2, "b+"}));
}

TEST(Dfa, DeterminizeRejectsNegativeStateIds) {
  petri::Lts lts;
  lts.num_states = 2;
  lts.edges = {{0, -1, "a+"}};
  EXPECT_THROW(determinize(lts), std::invalid_argument);
}

TEST(Dfa, LabelsFromListsOneStateInOrder) {
  Dfa dfa;
  dfa.num_states = 3;
  dfa.delta = {{{0, "z+"}, 1}, {{1, "b+"}, 2}, {{1, "a-"}, 0}, {{2, ""}, 2}};
  EXPECT_EQ(dfa.labels_from(1), (std::vector<std::string>{"a-", "b+"}));
  EXPECT_EQ(dfa.labels_from(2), (std::vector<std::string>{""}));
  EXPECT_TRUE(dfa.labels_from(3).empty());
}

TEST(Dfa, LanguageContainment) {
  petri::Lts big;
  big.num_states = 3;
  big.edges = {{0, 1, "a+"}, {0, 2, "b+"}};
  petri::Lts small;
  small.num_states = 2;
  small.edges = {{0, 1, "a+"}};
  const Dfa a = determinize(big);
  const Dfa b = determinize(small);
  EXPECT_TRUE(language_contains(a, b));
  EXPECT_FALSE(language_contains(b, a));
  EXPECT_FALSE(language_equivalent(a, b));
  EXPECT_TRUE(language_equivalent(a, a));
}

TEST(Dfa, CounterexampleIsMinimal) {
  petri::Lts a;
  a.num_states = 2;
  a.edges = {{0, 1, "x+"}};
  petri::Lts b;
  b.num_states = 3;
  b.edges = {{0, 1, "x+"}, {1, 2, "y+"}};
  const auto cex =
      containment_counterexample(determinize(a), determinize(b));
  EXPECT_EQ(cex, (std::vector<std::string>{"x+", "y+"}));
}

// ---- minimize ----

TEST(Minimize, LanguageEqualDfasMinimizeIdentically) {
  // (a+ b+)* unrolled twice with states numbered backwards, and the
  // two-state loop: one minimal DFA, numbered from the initial state.
  Dfa unrolled;
  unrolled.num_states = 5;
  unrolled.initial = 4;
  unrolled.delta = {{{4, "a+"}, 3}, {{3, "b+"}, 2}, {{2, "a+"}, 1},
                    {{1, "b+"}, 4}, {{0, "a+"}, 0}};  // state 0 unreachable
  Dfa loop;
  loop.num_states = 2;
  loop.delta = {{{0, "a+"}, 1}, {{1, "b+"}, 0}};
  const Dfa want = minimize(loop);
  EXPECT_EQ(want.num_states, 2);
  EXPECT_EQ(want.initial, 0);
  EXPECT_EQ(want.delta, loop.delta);
  const Dfa got = minimize(unrolled);
  EXPECT_EQ(got.num_states, want.num_states);
  EXPECT_EQ(got.initial, want.initial);
  EXPECT_EQ(got.delta, want.delta);
}

TEST(Minimize, NumbersBlocksBreadthFirstInLabelOrder) {
  // The initial state's successors are numbered in label order, not in
  // the order of the input's state ids.
  Dfa dfa;
  dfa.num_states = 3;
  dfa.delta = {{{0, "a+"}, 2}, {{0, "b+"}, 1}, {{1, "x+"}, 1}};
  const Dfa min = minimize(dfa);
  const std::map<std::pair<int, std::string>, int> want = {
      {{0, "a+"}, 1}, {{0, "b+"}, 2}, {{2, "x+"}, 2}};
  EXPECT_EQ(min.num_states, 3);
  EXPECT_EQ(min.delta, want);
}

/// A DFA of `n` states over labels l0..l3 with random partial moves.
Dfa random_dfa(std::mt19937& rng, int n) {
  Dfa dfa;
  dfa.num_states = n;
  dfa.initial = std::uniform_int_distribution<int>(0, n - 1)(rng);
  std::uniform_int_distribution<int> state(0, n - 1);
  for (int s = 0; s < n; ++s) {
    for (int l = 0; l < 4; ++l) {
      // Few targets, so many states share a language.
      if (rng() % 3 != 0) {
        dfa.delta[{s, "l" + std::to_string(l)}] = state(rng) % (n / 2 + 1);
      }
    }
  }
  return dfa;
}

/// True when states p and q of `dfa` accept the same words: every pair
/// reachable by a common word enables the same labels.
bool brute_force_equivalent(const Dfa& dfa, int p, int q) {
  std::set<std::pair<int, int>> seen{{p, q}};
  std::vector<std::pair<int, int>> stack{{p, q}};
  while (!stack.empty()) {
    const auto [a, b] = stack.back();
    stack.pop_back();
    const std::vector<std::string> labels = dfa.labels_from(a);
    if (labels != dfa.labels_from(b)) return false;
    for (const std::string& l : labels) {
      const std::pair<int, int> next{dfa.delta.at({a, l}),
                                     dfa.delta.at({b, l})};
      if (seen.insert(next).second) stack.push_back(next);
    }
  }
  return true;
}

TEST(Minimize, RandomDfasMatchBruteForceEquivalence) {
  std::mt19937 rng(43);
  for (int i = 0; i < 200; ++i) {
    SCOPED_TRACE("dfa " + std::to_string(i));
    const Dfa dfa =
        random_dfa(rng, std::uniform_int_distribution<int>(1, 24)(rng));
    // Count the equivalence classes of the reachable states.
    std::set<int> reachable{dfa.initial};
    std::vector<int> stack{dfa.initial};
    while (!stack.empty()) {
      const int s = stack.back();
      stack.pop_back();
      for (const std::string& l : dfa.labels_from(s)) {
        const int t = dfa.delta.at({s, l});
        if (reachable.insert(t).second) stack.push_back(t);
      }
    }
    std::vector<int> classes;  // one representative per class
    for (const int s : reachable) {
      if (std::none_of(classes.begin(), classes.end(), [&](int r) {
            return brute_force_equivalent(dfa, r, s);
          })) {
        classes.push_back(s);
      }
    }
    const Dfa min = minimize(dfa);
    EXPECT_EQ(min.num_states, static_cast<int>(classes.size()));
    EXPECT_TRUE(language_equivalent(min, dfa));
    const Dfa again = minimize(min);
    EXPECT_EQ(again.num_states, min.num_states);
    EXPECT_EQ(again.initial, min.initial);
    EXPECT_EQ(again.delta, min.delta);
  }
}

// ---- Section 4.3 sweep ----
//
// Activating program:  (rep (OP1 (p-to-p <act1> p) (p-to-p active c)))
// Activated program:   (rep (OP2 (p-to-p passive c) (p-to-p active d)))
// The Activation Channel Removal result must conform to the composition
// of the two originals with channel c hidden.

struct SweepCase {
  const char* op1;
  const char* act1;
  const char* op2;
};

class Section43Sweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(Section43Sweep, ClusteredConformsToComposition) {
  const SweepCase& c = GetParam();
  // Active/active operator pairs need an outer passive activation to form
  // a complete (input-driven) controller.
  const std::string inner = std::string("(") + c.op1 + " (p-to-p " + c.act1 +
                            " p) (p-to-p active c))";
  const std::string x_src =
      std::string(c.act1) == "active"
          ? "(rep (enc-early (p-to-p passive go) " + inner + "))"
          : "(rep " + inner + ")";
  const std::string y_src = std::string("(rep (") + c.op2 +
                            " (p-to-p passive c) (p-to-p active d)))";
  const auto x = ch::parse(x_src);
  const auto y = ch::parse(y_src);

  const auto merged = opt::activation_channel_removal(
      ch::Program("X", x->clone()), ch::Program("Y", y->clone()), "c");
  ASSERT_TRUE(merged.has_value()) << x_src << " / " << y_src;

  const auto result = verify_clustering(*x, *y, "c", *merged->body);
  // Equal languages have isomorphic minimal DFAs (Myhill-Nerode).
  EXPECT_EQ(result.composed_states, result.clustered_states);
  EXPECT_TRUE(result.equivalent)
      << x_src << " / " << y_src << "\nclustered: "
      << ch::to_string(*merged->body) << "\ncounterexample: "
      << [&] {
           std::string s;
           for (const auto& t : result.counterexample) s += t + " ";
           return s;
         }();
}

// OP2 sweeps the *enclosure* operators only: the activation pattern of
// Section 4.1 requires the channel to enclose the body (a seq-carried
// channel does not, and match_activation rejects it; see the dedicated
// test below).
INSTANTIATE_TEST_SUITE_P(
    AllLegalCombinations, Section43Sweep,
    ::testing::Values(
        // OP1 with passive first argument (Table 1 passive/active column).
        SweepCase{"enc-early", "passive", "enc-early"},
        SweepCase{"enc-early", "passive", "enc-middle"},
        SweepCase{"enc-early", "passive", "enc-late"},
        SweepCase{"enc-middle", "passive", "enc-early"},
        SweepCase{"enc-middle", "passive", "enc-middle"},
        SweepCase{"enc-middle", "passive", "enc-late"},
        SweepCase{"enc-late", "passive", "enc-early"},
        SweepCase{"enc-late", "passive", "enc-middle"},
        SweepCase{"enc-late", "passive", "enc-late"},
        SweepCase{"seq", "passive", "enc-early"},
        SweepCase{"seq", "passive", "enc-middle"},
        SweepCase{"seq", "passive", "enc-late"},
        // OP1 with active first argument (active/active column).
        SweepCase{"enc-early", "active", "enc-early"},
        SweepCase{"enc-early", "active", "enc-middle"},
        SweepCase{"enc-early", "active", "enc-late"},
        SweepCase{"enc-middle", "active", "enc-early"},
        SweepCase{"enc-middle", "active", "enc-middle"},
        SweepCase{"enc-middle", "active", "enc-late"},
        SweepCase{"seq", "active", "enc-early"},
        SweepCase{"seq", "active", "enc-middle"},
        SweepCase{"seq", "active", "enc-late"},
        SweepCase{"seq-ov", "active", "enc-early"},
        SweepCase{"seq-ov", "active", "enc-middle"},
        SweepCase{"seq-ov", "active", "enc-late"}));

TEST(Verify, SeqCarriedChannelIsNotAnActivation) {
  // (seq (p-to-p passive c) X) does not enclose X in c's handshake, so
  // removing c would serialize behaviour the composition leaves
  // concurrent; the pattern matcher must reject it.
  const auto y = ch::parse(
      "(rep (seq (p-to-p passive c) (p-to-p active d)))");
  EXPECT_FALSE(opt::match_activation(*y, "c").has_value());
}

TEST(Verify, Section41ExampleConforms) {
  const auto dw = ch::parse(
      "(rep (enc-early (p-to-p passive a1)"
      "  (mutex (enc-early (p-to-p passive i1) (p-to-p active o1))"
      "         (enc-early (p-to-p passive i2) (p-to-p active o2)))))");
  const auto seq = ch::parse(
      "(rep (enc-early (p-to-p passive o2)"
      "  (seq (p-to-p active c1) (p-to-p active c2))))");
  const auto merged = opt::activation_channel_removal(
      ch::Program("DW", dw->clone()), ch::Program("SEQ", seq->clone()), "o2");
  ASSERT_TRUE(merged.has_value());
  const auto result = verify_clustering(*dw, *seq, "o2", *merged->body);
  EXPECT_TRUE(result.equivalent);
}

TEST(Verify, DetectsBrokenClustering) {
  // Deliberately wrong "optimization": dropping the body entirely.
  const auto x = ch::parse(
      "(rep (enc-early (p-to-p passive p) (p-to-p active c)))");
  const auto y = ch::parse(
      "(rep (enc-early (p-to-p passive c) (p-to-p active d)))");
  const auto bogus = ch::parse("(rep (p-to-p passive p))");
  const auto result = verify_clustering(*x, *y, "c", *bogus);
  EXPECT_FALSE(result.equivalent);
  EXPECT_FALSE(result.counterexample.empty());
}

TEST(Verify, HidePrefix) {
  EXPECT_EQ(reference::hide_prefix("O2"), "o2_");
}

TEST(Verify, ChannelWiresAreExactSignals) {
  EXPECT_TRUE(is_channel_wire("o2_r+", "O2"));
  EXPECT_TRUE(is_channel_wire("c_a-", "c"));
  EXPECT_TRUE(is_channel_wire("c_a12+", "c"));  // mult-ack wire index
  EXPECT_FALSE(is_channel_wire("c_x_r+", "c"));
  EXPECT_FALSE(is_channel_wire("cc_r+", "c"));
  EXPECT_FALSE(is_channel_wire("c_rx+", "c"));
  EXPECT_FALSE(is_channel_wire("c_r", "c"));
  EXPECT_FALSE(is_channel_wire("c_d+", "c"));
}

// ---- verify_composition (multi-member conformance, fuzz oracle) ----

TEST(VerifyComposition, ThreeMemberChainConforms) {
  const auto x =
      ch::parse("(rep (enc-early (p-to-p passive go) (p-to-p active c1)))");
  const auto y =
      ch::parse("(rep (enc-early (p-to-p passive c1) (p-to-p active c2)))");
  const auto z =
      ch::parse("(rep (enc-early (p-to-p passive c2) (p-to-p active d)))");
  const auto clustered = ch::parse(
      "(rep (enc-early (p-to-p passive go)"
      "  (enc-early void (enc-early void (p-to-p active d)))))");
  const auto result = verify_composition({x.get(), y.get(), z.get()},
                                         {"c1", "c2"}, *clustered);
  EXPECT_TRUE(result.equivalent);
  EXPECT_TRUE(result.counterexample.empty());
}

TEST(VerifyComposition, SerializedForkIsRefusedWithMinimalPrefix) {
  // The composed fork starts d1 and d2 concurrently.  A clustered
  // controller that serializes them refuses to raise d2_r while d1's
  // handshake runs; the composition rejects at the first event the
  // clustered machine adds beyond the common behaviour, so the
  // counterexample is the three-event prefix, not a full trace.
  const auto x =
      ch::parse("(rep (enc-early (p-to-p passive go) (p-to-p active c)))");
  const auto y = ch::parse(
      "(rep (enc-early (p-to-p passive c)"
      "  (enc-middle (p-to-p active d1) (p-to-p active d2))))");
  const auto clustered = ch::parse(
      "(rep (enc-early (p-to-p passive go)"
      "  (enc-early void (seq (p-to-p active d1) (p-to-p active d2)))))");
  const auto result =
      verify_composition({x.get(), y.get()}, {"c"}, *clustered);
  EXPECT_FALSE(result.equivalent);
  EXPECT_EQ(result.counterexample,
            (std::vector<std::string>{"go_r+", "d1_r+", "d1_a+"}));
}

TEST(VerifyComposition, DoubledHandshakeIsRefusedAfterOneCycle) {
  // A clustered controller that runs d twice per activation is refused
  // exactly at the start of the second handshake: the minimal rejecting
  // prefix is one full d cycle plus the spurious d_r+.
  const auto x =
      ch::parse("(rep (enc-early (p-to-p passive go) (p-to-p active c)))");
  const auto y =
      ch::parse("(rep (enc-early (p-to-p passive c) (p-to-p active d)))");
  const auto clustered = ch::parse(
      "(rep (enc-early (p-to-p passive go)"
      "  (seq (p-to-p active d) (p-to-p active d))))");
  const auto result =
      verify_composition({x.get(), y.get()}, {"c"}, *clustered);
  EXPECT_FALSE(result.equivalent);
  EXPECT_EQ(result.counterexample,
            (std::vector<std::string>{"go_r+", "d_r+", "d_a+", "d_r-", "d_a-",
                                      "d_r+"}));
}

TEST(VerifyComposition, HidingKeepsPrefixSiblingVisible) {
  // Hiding c must not hide c_x, a different channel whose wires start
  // with "c_".  Prefix hiding did, and refused the correct controller.
  const auto x =
      ch::parse("(rep (enc-early (p-to-p passive go) (p-to-p active c)))");
  const auto y =
      ch::parse("(rep (enc-early (p-to-p passive c) (p-to-p active c_x)))");
  const auto clustered = ch::parse(
      "(rep (enc-early (p-to-p passive go)"
      "  (enc-early void (p-to-p active c_x))))");
  const auto result =
      verify_composition({x.get(), y.get()}, {"c"}, *clustered);
  EXPECT_TRUE(result.equivalent);
  EXPECT_TRUE(result.counterexample.empty());
  EXPECT_EQ(
      reference::verify_composition({x.get(), y.get()}, {"c"}, *clustered)
          .counterexample,
      (std::vector<std::string>{"go_r+", "c_x_r+"}));
}

TEST(VerifyComposition, ChannelIsHiddenOnlyAfterItsLastMember) {
  // c links the first and third members; hiding it after the second
  // would let the third member's c handshake run unsynchronized.
  const auto x = ch::parse(
      "(rep (enc-early (p-to-p passive go)"
      "  (seq (p-to-p active c) (p-to-p active e))))");
  const auto y =
      ch::parse("(rep (enc-early (p-to-p passive e) (p-to-p active d)))");
  const auto z =
      ch::parse("(rep (enc-early (p-to-p passive c) (p-to-p active f)))");
  const auto clustered = ch::parse(
      "(rep (enc-early (p-to-p passive go)"
      "  (seq (p-to-p active f) (p-to-p active d))))");
  const auto result = verify_composition({x.get(), y.get(), z.get()},
                                         {"c", "e"}, *clustered);
  EXPECT_TRUE(result.equivalent);
  const auto swapped = ch::parse(
      "(rep (enc-early (p-to-p passive go)"
      "  (seq (p-to-p active d) (p-to-p active f))))");
  EXPECT_EQ(verify_composition({x.get(), y.get(), z.get()}, {"c", "e"},
                               *swapped)
                .counterexample,
            (std::vector<std::string>{"go_r+", "d_r+"}));
}

TEST(VerifyComposition, NoMembersIsRejected) {
  const auto clustered = ch::parse("(rep (p-to-p passive go))");
  EXPECT_THROW(verify_composition({}, {}, *clustered), std::invalid_argument);
}

TEST(VerifyComposition, StateLimitThrowsInsteadOfDeciding) {
  const auto x =
      ch::parse("(rep (enc-early (p-to-p passive go) (p-to-p active c)))");
  const auto y =
      ch::parse("(rep (enc-early (p-to-p passive c) (p-to-p active d)))");
  const auto clustered = ch::parse(
      "(rep (enc-early (p-to-p passive go) (enc-early void "
      "(p-to-p active d))))");
  EXPECT_THROW(verify_composition({x.get(), y.get()}, {"c"}, *clustered,
                                  /*state_limit=*/2),
               std::runtime_error);
}

// ---- reject_prefix (the fault campaign's counterexample engine) ----

TEST(RejectPrefix, AcceptedTraceYieldsEmpty) {
  petri::Lts lts;
  lts.num_states = 3;
  lts.edges = {{0, 1, "a+"}, {1, 2, "b+"}};
  const Dfa dfa = determinize(lts);
  EXPECT_TRUE(reject_prefix(dfa, {}).empty());
  EXPECT_TRUE(reject_prefix(dfa, {"a+"}).empty());
  EXPECT_TRUE(reject_prefix(dfa, {"a+", "b+"}).empty());
}

TEST(RejectPrefix, ReturnsShortestRejectedPrefix) {
  petri::Lts lts;
  lts.num_states = 3;
  lts.edges = {{0, 1, "a+"}, {1, 2, "b+"}};
  const Dfa dfa = determinize(lts);
  // The first illegal label closes the counterexample; later labels are
  // irrelevant.
  EXPECT_EQ(reject_prefix(dfa, {"b+", "a+"}),
            (std::vector<std::string>{"b+"}));
  EXPECT_EQ(reject_prefix(dfa, {"a+", "a+", "b+"}),
            (std::vector<std::string>{"a+", "a+"}));
}

// ---- bm_spec_lts: BM machine -> trace language ----

ch::Transition edge(bool is_input, const std::string& signal, bool rising) {
  ch::Transition t;
  t.is_input = is_input;
  t.signal = signal;
  t.rising = rising;
  return t;
}

TEST(BmSpecLts, HandshakeCycleLanguage) {
  // Two-state machine: s0 --a+/b+--> s1 --a-/b---> s0.
  bm::Spec spec;
  spec.name = "cycle";
  spec.num_states = 2;
  spec.initial_state = 0;
  bm::Arc up;
  up.from = 0;
  up.to = 1;
  up.in_burst.transitions = {edge(true, "a", true)};
  up.out_burst.transitions = {edge(false, "b", true)};
  bm::Arc down;
  down.from = 1;
  down.to = 0;
  down.in_burst.transitions = {edge(true, "a", false)};
  down.out_burst.transitions = {edge(false, "b", false)};
  spec.arcs = {up, down};
  spec.is_input = {{"a", true}, {"b", false}};

  const Dfa dfa = determinize(bm_spec_lts(spec));
  EXPECT_TRUE(reject_prefix(dfa, {"a+", "b+", "a-", "b-", "a+"}).empty());
  // The output burst cannot fire before its input burst...
  EXPECT_EQ(reject_prefix(dfa, {"b+"}), (std::vector<std::string>{"b+"}));
  // ...and the machine cannot skip an output burst.
  EXPECT_EQ(reject_prefix(dfa, {"a+", "a-"}),
            (std::vector<std::string>{"a+", "a-"}));
}

TEST(BmSpecLts, InputBurstIsUnordered) {
  // One arc with a two-edge input burst: both arrival orders are legal,
  // and the output fires only after the whole burst.
  bm::Spec spec;
  spec.name = "burst2";
  spec.num_states = 2;
  spec.initial_state = 0;
  bm::Arc arc;
  arc.from = 0;
  arc.to = 1;
  arc.in_burst.transitions = {edge(true, "x", true), edge(true, "y", true)};
  arc.out_burst.transitions = {edge(false, "z", true)};
  spec.arcs = {arc};
  spec.is_input = {{"x", true}, {"y", true}, {"z", false}};

  const Dfa dfa = determinize(bm_spec_lts(spec));
  EXPECT_TRUE(reject_prefix(dfa, {"x+", "y+", "z+"}).empty());
  EXPECT_TRUE(reject_prefix(dfa, {"y+", "x+", "z+"}).empty());
  EXPECT_EQ(reject_prefix(dfa, {"x+", "z+"}),
            (std::vector<std::string>{"x+", "z+"}));
}

}  // namespace
}  // namespace bb::trace
