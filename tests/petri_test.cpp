#include <gtest/gtest.h>

#include "src/ch/parser.hpp"
#include "src/petri/from_ch.hpp"
#include "src/petri/net.hpp"
#include "tests/reference_trace.hpp"

namespace bb::petri {
namespace {

TEST(PetriNet, FireSimpleChain) {
  PetriNet net;
  const int p0 = net.add_place(true);
  const int p1 = net.add_place();
  const int p2 = net.add_place();
  net.add_transition(Transition{"a+", {p0}, {p1}});
  net.add_transition(Transition{"a-", {p1}, {p2}});
  const Lts lts = net.reachability();
  EXPECT_EQ(lts.num_states, 3);
  ASSERT_EQ(lts.edges.size(), 2u);
  EXPECT_EQ(lts.edges[0].label, "a+");
  EXPECT_EQ(lts.edges[1].label, "a-");
}

TEST(PetriNet, LoopReachability) {
  PetriNet net;
  const int p0 = net.add_place(true);
  const int p1 = net.add_place();
  net.add_transition(Transition{"a+", {p0}, {p1}});
  net.add_transition(Transition{"a-", {p1}, {p0}});
  const Lts lts = net.reachability();
  EXPECT_EQ(lts.num_states, 2);
  EXPECT_EQ(lts.edges.size(), 2u);
}

TEST(PetriNet, ConcurrencyInterleaves) {
  // Two independent tokens: 4 reachable markings.
  PetriNet net;
  const int a0 = net.add_place(true);
  const int a1 = net.add_place();
  const int b0 = net.add_place(true);
  const int b1 = net.add_place();
  net.add_transition(Transition{"x+", {a0}, {a1}});
  net.add_transition(Transition{"y+", {b0}, {b1}});
  const Lts lts = net.reachability();
  EXPECT_EQ(lts.num_states, 4);
  EXPECT_EQ(lts.edges.size(), 4u);
}

TEST(PetriNet, NotOneSafeDetected) {
  PetriNet net;
  const int p0 = net.add_place(true);
  const int p1 = net.add_place(true);
  const int p2 = net.add_place(true);
  net.add_transition(Transition{"a+", {p0}, {p2}});
  (void)p1;
  EXPECT_THROW(net.reachability(), std::runtime_error);
}

TEST(PetriNet, PostPlaceListedTwiceIsNotOneSafe) {
  PetriNet net;
  const int p0 = net.add_place(true);
  const int p1 = net.add_place();
  net.add_transition(Transition{"a+", {p0}, {p1, p1}});
  try {
    (void)net.reachability();
    FAIL() << "expected a 1-safety violation";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "PetriNet::reachability: net is not 1-safe");
  }
}

TEST(PetriNet, StateLimitIsInclusive) {
  // A chain of 5 places reaches exactly 5 markings.
  PetriNet net;
  int prev = net.add_place(true);
  for (int i = 0; i < 4; ++i) {
    const int next = net.add_place();
    net.add_transition(Transition{"t" + std::to_string(i), {prev}, {next}});
    prev = next;
  }
  EXPECT_EQ(net.reachability(5).num_states, 5);
  try {
    (void)net.reachability(4);
    FAIL() << "expected the state limit to trip";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "PetriNet::reachability: state limit exceeded");
  }
}

TEST(PetriNet, UnknownPlaceIsRejected) {
  PetriNet net;
  const int p0 = net.add_place(true);
  net.add_transition(Transition{"a+", {p0}, {7}});
  EXPECT_THROW(net.reachability(), std::out_of_range);
}

// Composition and prefix hiding live on only in the whole-net reference
// conformance check (tests/reference_trace.hpp).

TEST(PetriNet, ComposeSynchronizesSharedLabels) {
  // Net A: x+ then c+.  Net B: c+ then y+.  Composed: x+ c+ y+ only.
  PetriNet a;
  const int a0 = a.add_place(true);
  const int a1 = a.add_place();
  const int a2 = a.add_place();
  a.add_transition(Transition{"x+", {a0}, {a1}});
  a.add_transition(Transition{"c+", {a1}, {a2}});
  PetriNet b;
  const int b0 = b.add_place(true);
  const int b1 = b.add_place();
  const int b2 = b.add_place();
  b.add_transition(Transition{"c+", {b0}, {b1}});
  b.add_transition(Transition{"y+", {b1}, {b2}});

  const PetriNet composed = trace::reference::compose(a, b);
  const Lts lts = composed.reachability();
  // States: init, after x+, after c+, after y+.
  EXPECT_EQ(lts.num_states, 4);
  EXPECT_EQ(lts.edges.size(), 3u);
}

TEST(PetriNet, HidePrefixes) {
  PetriNet net;
  const int p0 = net.add_place(true);
  const int p1 = net.add_place();
  net.add_transition(Transition{"c_r+", {p0}, {p1}});
  trace::reference::hide_prefixes(net, {"c_"});
  EXPECT_TRUE(net.alphabet().empty());
}

TEST(FromCh, SingleChannelTraces) {
  const auto net = from_ch(*ch::parse("(p-to-p passive A)"));
  const Lts lts = net.reachability();
  EXPECT_EQ(lts.num_states, 5);  // 4 transitions in a row
  EXPECT_EQ(lts.edges.size(), 4u);
}

TEST(FromCh, RepLoops) {
  const auto net = from_ch(*ch::parse("(rep (p-to-p passive A))"));
  const Lts lts = net.reachability();
  // Four handshake states plus the pre-tau state of the loop back-edge;
  // the after-loop place is unreachable.
  EXPECT_EQ(lts.num_states, 5);
  bool has_tau_backedge = false;
  for (const auto& e : lts.edges) {
    if (e.label.empty() && e.to == lts.initial) has_tau_backedge = true;
  }
  EXPECT_TRUE(has_tau_backedge);
}

TEST(FromCh, MutexCreatesConflict) {
  const auto net = from_ch(*ch::parse(
      "(rep (mutex (enc-early (p-to-p passive A1) (p-to-p active B))"
      "            (enc-early (p-to-p passive A2) (p-to-p active B))))"));
  const Lts lts = net.reachability();
  // The initial state must offer both a1_r+ and a2_r+.
  int choices = 0;
  for (const auto& e : lts.edges) {
    if (e.from == lts.initial) ++choices;
  }
  EXPECT_EQ(choices, 2);
}

TEST(FromCh, EncMiddleLinearizesBursts) {
  // The intermediate form fixes one linear order inside each burst
  // ([a1 b1] -> a_r+ then b_r+); burst concurrency is a BM-level notion.
  const auto net = from_ch(*ch::parse(
      "(enc-middle (p-to-p passive A) (p-to-p passive B))"));
  const Lts lts = net.reachability();
  EXPECT_EQ(lts.num_states, 9);
  ASSERT_GE(lts.edges.size(), 2u);
  EXPECT_EQ(lts.edges[0].label, "a_r+");
  EXPECT_EQ(lts.edges[1].label, "b_r+");
}

TEST(FromCh, ToStringSmoke) {
  const auto net = from_ch(*ch::parse("(p-to-p passive A)"));
  EXPECT_NE(net.to_string().find("a_r+"), std::string::npos);
}

}  // namespace
}  // namespace bb::petri
