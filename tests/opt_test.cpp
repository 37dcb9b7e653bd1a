// Clustering optimizations checked against the worked examples of
// Sections 4.1 (decision-wait + sequencer, Fig. 4) and 4.2 (sequencer +
// call, Fig. 5).
#include "src/opt/cluster.hpp"

#include <gtest/gtest.h>

#include "src/bm/compile.hpp"
#include "src/bm/validate.hpp"
#include "src/ch/parser.hpp"
#include "src/ch/printer.hpp"
#include "src/opt/ch_util.hpp"

namespace bb::opt {
namespace {

ch::Program program(const std::string& name, const std::string& source) {
  return ch::Program(name, ch::parse(source));
}

// Section 4.1's example pair.
const char* kDecisionWait =
    "(rep (enc-early (p-to-p passive a1)"
    "  (mutex (enc-early (p-to-p passive i1) (p-to-p active o1))"
    "         (enc-early (p-to-p passive i2) (p-to-p active o2)))))";
const char* kSequencerOnO2 =
    "(rep (enc-early (p-to-p passive o2)"
    "  (seq (p-to-p active c1) (p-to-p active c2))))";

TEST(ChUtil, UsesOf) {
  const auto e = ch::parse(kDecisionWait);
  const auto uses = uses_of(*e, "o2");
  ASSERT_EQ(uses.size(), 1u);
  EXPECT_EQ(uses[0].activity, ch::Activity::kActive);
  EXPECT_EQ(uses_of(*e, "a1")[0].activity, ch::Activity::kPassive);
  EXPECT_TRUE(uses_of(*e, "zz").empty());
}

TEST(ChUtil, ChannelNames) {
  const auto e = ch::parse(kDecisionWait);
  EXPECT_EQ(channel_names(*e),
            (std::vector<std::string>{"a1", "i1", "i2", "o1", "o2"}));
}

TEST(ChUtil, MatchActivation) {
  const auto e = ch::parse(kSequencerOnO2);
  const auto m = match_activation(*e, "o2");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(ch::to_string(*m->body),
            "(seq (p-to-p active c1) (p-to-p active c2))");
  EXPECT_FALSE(match_activation(*e, "c1").has_value());
}

TEST(ChUtil, MatchActivationWithoutRep) {
  const auto e = ch::parse(
      "(enc-early (p-to-p passive a) (rep (p-to-p active b)))");
  EXPECT_TRUE(match_activation(*e, "a").has_value());
}

TEST(ChUtil, ReplaceChannel) {
  auto e = ch::parse("(seq (p-to-p active x) (p-to-p active y))");
  const auto replacement = ch::parse("(p-to-p active z)");
  EXPECT_EQ(replace_channel(*e, "x", *replacement), 1);
  EXPECT_EQ(ch::to_string(*e),
            "(seq (p-to-p active z) (p-to-p active y))");
  EXPECT_EQ(replace_channel(*e, "absent", *replacement), 0);
}

TEST(T1, Section41WorkedExample) {
  const auto merged = activation_channel_removal(
      program("DW", kDecisionWait), program("SEQ", kSequencerOnO2), "o2");
  ASSERT_TRUE(merged.has_value());
  // The paper's merged program (end of Section 4.1).
  EXPECT_EQ(ch::to_string(*merged->body),
            "(rep (enc-early (p-to-p passive a1) "
            "(mutex "
            "(enc-early (p-to-p passive i1) (p-to-p active o1)) "
            "(enc-early (p-to-p passive i2) "
            "(enc-early void "
            "(seq (p-to-p active c1) (p-to-p active c2)))))))");
}

TEST(T1, Section41MergedMachineMatchesFig4) {
  const auto merged = activation_channel_removal(
      program("DW", kDecisionWait), program("SEQ", kSequencerOnO2), "o2");
  ASSERT_TRUE(merged.has_value());
  const auto spec = bm::compile(*merged->body, "merged");
  EXPECT_TRUE(bm::validate(spec).ok);
  // Fig. 4 right: 11 states, and the i2 branch drives c1 directly.
  EXPECT_EQ(spec.num_states, 11);
  bool found = false;
  for (const auto& arc : spec.arcs) {
    if (arc.in_burst.to_string() == "a1_r+ i2_r+" &&
        arc.out_burst.to_string() == "c1_r+") {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "expected arc a1_r+ i2_r+ / c1_r+";
}

TEST(T1, RejectsNonActivationPattern) {
  // The call's passive channels are not activation channels (they sit
  // inside a mutex), so T1 alone cannot remove them.
  const auto call = program(
      "CALL",
      "(rep (mutex (enc-early (p-to-p passive b1) (p-to-p active c))"
      "            (enc-early (p-to-p passive b2) (p-to-p active c))))");
  const auto seq = program(
      "SEQ",
      "(rep (enc-early (p-to-p passive a)"
      "  (seq (p-to-p active b1) (p-to-p active b2))))");
  EXPECT_FALSE(activation_channel_removal(seq, call, "b1").has_value());
}

TEST(T1, RejectsWrongChannel) {
  EXPECT_FALSE(activation_channel_removal(program("DW", kDecisionWait),
                                          program("SEQ", kSequencerOnO2),
                                          "o1")
                   .has_value());
}

TEST(T1, ClusteringMergesChain) {
  // Sequencer activating two sequencers: all three merge into one.
  std::vector<ch::Program> programs;
  programs.push_back(program(
      "TOP", "(rep (enc-early (p-to-p passive a)"
             "  (seq (p-to-p active b1) (p-to-p active b2))))"));
  programs.push_back(program(
      "S1", "(rep (enc-early (p-to-p passive b1)"
            "  (seq (p-to-p active c1) (p-to-p active c2))))"));
  programs.push_back(program(
      "S2", "(rep (enc-early (p-to-p passive b2)"
            "  (seq (p-to-p active c3) (p-to-p active c4))))"));
  ClusterStats stats;
  const auto result = t1_clustering(wrap(std::move(programs)), {}, &stats);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(stats.t1_applied, 2);
  EXPECT_EQ(result[0].members.size(), 3u);
  // The merged controller is a 4-deep sequence over c1..c4.
  const auto spec = bm::compile(*result[0].program.body, "m");
  EXPECT_TRUE(bm::validate(spec).ok);
  EXPECT_EQ(spec.num_states, 10);  // 4 handshakes * 2 + activation entry/exit
}

TEST(T1, StateBudgetRejectsMerge) {
  std::vector<ch::Program> programs;
  programs.push_back(program(
      "TOP", "(rep (enc-early (p-to-p passive a)"
             "  (seq (p-to-p active b1) (p-to-p active b2))))"));
  programs.push_back(program(
      "S1", "(rep (enc-early (p-to-p passive b1)"
            "  (seq (p-to-p active c1) (p-to-p active c2))))"));
  ClusterOptions options;
  options.max_states = 4;  // merged machine needs more
  ClusterStats stats;
  const auto result =
      t1_clustering(wrap(std::move(programs)), options, &stats);
  EXPECT_EQ(result.size(), 2u);
  EXPECT_EQ(stats.t1_applied, 0);
  EXPECT_GT(stats.t1_rejected, 0);
}

TEST(T2, Section42WorkedExample) {
  // Fig. 5: a sequencer whose both branches activate a 2-way call.
  std::vector<ch::Program> programs;
  programs.push_back(program(
      "SEQ", "(rep (enc-early (p-to-p passive a)"
             "  (seq (p-to-p active b1) (p-to-p active b2))))"));
  programs.push_back(program(
      "CALL",
      "(rep (mutex (enc-early (p-to-p passive b1) (p-to-p active c))"
      "            (enc-early (p-to-p passive b2) (p-to-p active c))))"));
  ClusterStats stats;
  const auto result = t2_clustering(wrap(std::move(programs)), {}, &stats);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(stats.calls_distributed, 1);
  EXPECT_EQ(stats.calls_restored, 0);

  // The merged controller (end of Section 4.2): both call fragments
  // inlined, channel c handshaken twice per activation.
  EXPECT_EQ(ch::to_string(*result[0].program.body),
            "(rep (enc-early (p-to-p passive a) "
            "(seq (enc-early void (p-to-p active c)) "
            "(enc-early void (p-to-p active c)))))");

  // Fig. 5 right: 6 states, a_r+/c_r+ entry arc.
  const auto spec = bm::compile(*result[0].program.body, "m");
  EXPECT_TRUE(bm::validate(spec).ok);
  EXPECT_EQ(spec.num_states, 6);
  bool found = false;
  for (const auto& arc : spec.arcs) {
    if (arc.in_burst.to_string() == "a_r+" &&
        arc.out_burst.to_string() == "c_r+") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(T2, RestoresWhenFragmentsSplitAcrossControllers) {
  // Two *independent* loops each call through a shared 2-way call: the
  // fragments land in different controllers, so the call is restored.
  std::vector<ch::Program> programs;
  programs.push_back(program(
      "L1", "(enc-early (p-to-p passive go1) (rep (p-to-p active b1)))"));
  programs.push_back(program(
      "L2", "(enc-early (p-to-p passive go2) (rep (p-to-p active b2)))"));
  programs.push_back(program(
      "CALL",
      "(rep (mutex (enc-early (p-to-p passive b1) (p-to-p active c))"
      "            (enc-early (p-to-p passive b2) (p-to-p active c))))"));
  ClusterStats stats;
  const auto result = t2_clustering(wrap(std::move(programs)), {}, &stats);
  EXPECT_EQ(stats.calls_restored, 1);
  EXPECT_EQ(stats.calls_distributed, 0);
  // The call survives intact.
  ASSERT_EQ(result.size(), 3u);
  bool call_alive = false;
  for (const auto& p : result) {
    if (p.program.name == "CALL") call_alive = true;
  }
  EXPECT_TRUE(call_alive);
}

TEST(T2, OptimizePipeline) {
  std::vector<ch::Program> programs;
  programs.push_back(program(
      "SEQ", "(rep (enc-early (p-to-p passive a)"
             "  (seq (p-to-p active b1) (p-to-p active b2))))"));
  programs.push_back(program(
      "CALL",
      "(rep (mutex (enc-early (p-to-p passive b1) (p-to-p active c))"
      "            (enc-early (p-to-p passive b2) (p-to-p active c))))"));
  const auto result = optimize(std::move(programs));
  EXPECT_EQ(result.size(), 1u);
}

TEST(Synthesizable, AcceptsValidRejectsIllegal) {
  EXPECT_NE(check_merge(*ch::parse(
                "(rep (enc-middle (p-to-p passive a) (p-to-p passive b)))")),
            nullptr);
  EXPECT_EQ(check_merge(
                *ch::parse("(mutex (p-to-p active a) (p-to-p active b))")),
            nullptr);
  EXPECT_EQ(check_merge(*ch::parse("(p-to-p active b)")), nullptr);
}

TEST(Synthesizable, StateBudget)
{
  const auto e = ch::parse(
      "(rep (enc-early (p-to-p passive a)"
      "  (seq (p-to-p active b1) (p-to-p active b2))))");
  EXPECT_NE(check_merge(*e, 6), nullptr);
  EXPECT_EQ(check_merge(*e, 5), nullptr);
}

}  // namespace
}  // namespace bb::opt
