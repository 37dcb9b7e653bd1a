// Differential test of the trace engine against tests/reference_trace.hpp.
//
// Kernels: PetriNet::reachability (packed markings) and
// trace::determinize (adjacency-list subset construction) must produce
// the same LTS (state count, initial state, edges in order) and the same
// DFA (state count, initial state, transition map), and throw the same
// messages, on every CH program, clustered controller and BM
// specification of the paper designs and the examples, on the
// composed-and-hidden member nets of the fuzz corpus, and on seeded
// random nets and LTSs.
//
// Conformance: the compositional trace::verify_composition must reach
// the whole-net reference's verdict and counterexample, and
// trace::composition_dfa must be the minimized reference DFA, on every
// multi-member cluster of those designs and on seeded member chains with
// planted faults.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/balsa/compile.hpp"
#include "src/balsa/parser.hpp"
#include "src/bm/compile.hpp"
#include "src/ch/parser.hpp"
#include "src/ch/printer.hpp"
#include "src/designs/designs.hpp"
#include "src/fuzz/gen.hpp"
#include "src/fuzz/oracle.hpp"
#include "src/hsnet/to_ch.hpp"
#include "src/opt/cluster.hpp"
#include "src/petri/from_ch.hpp"
#include "src/trace/spec_lts.hpp"
#include "src/trace/verify.hpp"
#include "src/util/prng.hpp"
#include "tests/reference_trace.hpp"

#if !defined(BB_EXAMPLES_DIR)
#error "BB_EXAMPLES_DIR must name the examples directory"
#endif

namespace bb::trace {
namespace {

/// The conformance oracle's defaults (fuzz::conformance_check).
constexpr int kMaxStates = 40;
constexpr std::size_t kStateLimit = 1u << 14;

struct Tally {
  int nets = 0;          ///< reachability calls compared
  int ltss = 0;          ///< determinize calls compared
  int limit_throws = 0;  ///< nets both versions rejected at the limit
  int unsafe_throws = 0; ///< nets both versions rejected as not 1-safe
  int max_states = 0;    ///< largest LTS compared
  int verdicts = 0;        ///< conformance verdicts compared
  int counterexamples = 0; ///< of them, refusals with a counterexample
  int limit_reruns = 0;    ///< reference re-run past the oracle's limit
};

::testing::AssertionResult same_lts(const petri::Lts& got,
                                    const petri::Lts& want) {
  if (got.num_states != want.num_states || got.initial != want.initial ||
      got.edges.size() != want.edges.size()) {
    return ::testing::AssertionFailure()
           << "states/initial/edges " << got.num_states << "/" << got.initial
           << "/" << got.edges.size() << ", reference " << want.num_states
           << "/" << want.initial << "/" << want.edges.size();
  }
  for (std::size_t i = 0; i < got.edges.size(); ++i) {
    const petri::Lts::Edge& g = got.edges[i];
    const petri::Lts::Edge& w = want.edges[i];
    if (g.from != w.from || g.to != w.to || g.label != w.label) {
      return ::testing::AssertionFailure()
             << "edge " << i << ": " << g.from << " -" << g.label << "-> "
             << g.to << ", reference " << w.from << " -" << w.label << "-> "
             << w.to;
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_dfa(const Dfa& got, const Dfa& want) {
  if (got.num_states != want.num_states || got.initial != want.initial ||
      got.delta.size() != want.delta.size()) {
    return ::testing::AssertionFailure()
           << "states/initial/transitions " << got.num_states << "/"
           << got.initial << "/" << got.delta.size() << ", reference "
           << want.num_states << "/" << want.initial << "/"
           << want.delta.size();
  }
  for (auto g = got.delta.begin(), w = want.delta.begin();
       g != got.delta.end(); ++g, ++w) {
    if (*g != *w) {
      return ::testing::AssertionFailure()
             << "transition (" << g->first.first << ", " << g->first.second
             << ") -> " << g->second << ", reference (" << w->first.first
             << ", " << w->first.second << ") -> " << w->second;
    }
  }
  return ::testing::AssertionSuccess();
}

void check_lts(const petri::Lts& lts, Tally& tally) {
  ++tally.ltss;
  EXPECT_TRUE(same_dfa(determinize(lts), reference::determinize(lts)));
}

/// Compares reachability (and, when it succeeds, determinize on its LTS).
/// True when neither version threw.
bool check_net(const petri::PetriNet& net, Tally& tally,
               std::size_t limit = kStateLimit) {
  ++tally.nets;
  std::optional<petri::Lts> want, got;
  std::string want_error, got_error;
  try {
    want = reference::reachability(net, limit);
  } catch (const std::exception& e) {
    want_error = e.what();
  }
  try {
    got = net.reachability(limit);
  } catch (const std::exception& e) {
    got_error = e.what();
  }
  EXPECT_EQ(got_error, want_error);
  if (want_error.find("state limit") != std::string::npos) {
    ++tally.limit_throws;
  }
  if (want_error.find("1-safe") != std::string::npos) ++tally.unsafe_throws;
  if (!want || !got) return false;
  tally.max_states = std::max(tally.max_states, want->num_states);
  EXPECT_TRUE(same_lts(*got, *want));
  check_lts(*want, tally);
  return true;
}

void check_program(const ch::Program& program, Tally& tally) {
  SCOPED_TRACE("program " + program.name);
  check_net(petri::from_ch(*program.body), tally);
  try {
    check_lts(bm_spec_lts(bm::compile(*program.body, program.name)), tally);
  } catch (const std::exception&) {
    // Not a BM machine; the conformance oracle skips it too.
  }
}

/// Compares trace::verify_composition at the oracle's limit with the
/// whole-net reference.  Where the reference blows that limit it is
/// re-run at 1 << 20, and the compositional engine must still decide.
/// Where the reference throws for another reason (a net that is not
/// 1-safe) the engine must throw too.
void check_verdict(const std::vector<const ch::Expr*>& members,
                   const std::vector<std::string>& hidden,
                   const ch::Expr& clustered, Tally& tally) {
  std::size_t limit = kStateLimit;
  std::optional<VerifyResult> want, got;
  std::string want_error, got_error;
  try {
    want = reference::verify_composition(members, hidden, clustered, limit);
  } catch (const std::exception& e) {
    want_error = e.what();
  }
  if (want_error.find("state limit") != std::string::npos) {
    ++tally.limit_reruns;
    limit = 1u << 20;
    want_error.clear();
    try {
      want = reference::verify_composition(members, hidden, clustered, limit);
    } catch (const std::exception& e) {
      want_error = e.what();
    }
  }
  try {
    got = verify_composition(members, hidden, clustered, kStateLimit);
  } catch (const std::exception& e) {
    got_error = e.what();
  }
  if (!want) {
    EXPECT_FALSE(got.has_value()) << "reference threw: " << want_error;
    return;
  }
  ASSERT_TRUE(got.has_value()) << "reference decided, engine threw: "
                               << got_error;
  ++tally.verdicts;
  if (!want->counterexample.empty()) ++tally.counterexamples;
  EXPECT_EQ(got->equivalent, want->equivalent);
  EXPECT_EQ(got->counterexample, want->counterexample);
  // Both sides are canonical minimal DFAs of the reference's languages.
  EXPECT_TRUE(same_dfa(
      composition_dfa(members, hidden, kStateLimit),
      minimize(determinize(
          reference::compose_hidden(members, hidden).reachability(limit)))));
  EXPECT_EQ(got->clustered_states,
            minimize(determinize(
                         petri::from_ch(clustered).reachability(limit)))
                .num_states);
}

/// Every control program of `net`, every controller the clustering makes
/// of them, and the composed-and-hidden members of every multi-member
/// cluster — the nets the conformance oracle explores.
void check_netlist(const hsnet::Netlist& net, Tally& tally) {
  const std::vector<ch::Program> originals = hsnet::control_programs(net);
  std::vector<ch::Program> input;
  for (const ch::Program& p : originals) {
    check_program(p, tally);
    input.push_back(p.clone());
  }
  opt::ClusterOptions copts;
  copts.max_states = kMaxStates;
  for (const opt::ClusteredProgram& cp :
       opt::optimize(std::move(input), copts)) {
    check_program(cp.program, tally);
    if (cp.members.size() < 2) continue;
    SCOPED_TRACE("members of " + cp.program.name);
    const fuzz::ClusterMembers cm = fuzz::cluster_members(net, originals, cp);
    check_net(reference::compose_hidden(cm.members, cm.hidden), tally);
    check_verdict(cm.members, cm.hidden, *cp.program.body, tally);
  }
}

class PaperDesignTraces : public ::testing::TestWithParam<std::string> {};

TEST_P(PaperDesignTraces, MatchTheReference) {
  Tally tally;
  check_netlist(balsa::compile_source(designs::design(GetParam()).source),
                tally);
  EXPECT_GT(tally.nets, 0);
  EXPECT_GT(tally.ltss, tally.nets);
  EXPECT_GT(tally.verdicts, 0);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, PaperDesignTraces,
                         ::testing::Values("systolic", "wagging", "stack",
                                           "ssem"),
                         [](const auto& info) { return info.param; });

TEST(TraceReference, ExampleTracesMatchTheReference) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(BB_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".balsa") paths.push_back(entry.path());
  }
  ASSERT_FALSE(paths.empty());
  Tally tally;
  for (const auto& path : paths) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream in(path);
    std::ostringstream source;
    source << in.rdbuf();
    for (const auto& procedure : balsa::parse_program(source.str())) {
      check_netlist(balsa::compile(procedure), tally);
    }
  }
  EXPECT_GT(tally.nets, 0);
  EXPECT_GT(tally.verdicts, 0);
}

/// Case i of the fuzz campaign's corpus in `mode` at generator seed 1,
/// size 10 (the campaign's FNV-1a case-seed derivation).
hsnet::Netlist fuzz_case(const std::string& mode, int i) {
  const std::string tag = mode + ":" + std::to_string(i);
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  util::SplitMix64 rng(1 ^ h);
  fuzz::GenOptions gen;
  gen.max_commands = 10;
  return mode == "balsa"
             ? balsa::compile(fuzz::generate_procedure(rng, gen))
             : fuzz::build_recipe(fuzz::generate_recipe(rng, gen));
}

class FuzzCorpusTraces : public ::testing::TestWithParam<std::string> {};

TEST_P(FuzzCorpusTraces, MatchTheReference) {
  Tally tally;
  for (int i = 0; i < 30; ++i) {
    SCOPED_TRACE(GetParam() + ":" + std::to_string(i));
    check_netlist(fuzz_case(GetParam(), i), tally);
  }
  EXPECT_GT(tally.nets, 30);
  if (GetParam() == "netlist") {
    // The corpus holds the largest composed net the oracle explores
    // (15 488 states) and one that blows the state limit.
    EXPECT_GT(tally.max_states, 15000);
    EXPECT_GE(tally.limit_throws, 1);
    EXPECT_GE(tally.limit_reruns, 1);
  }
  EXPECT_GT(tally.verdicts, 10);
}

INSTANTIATE_TEST_SUITE_P(SeedOne, FuzzCorpusTraces,
                         ::testing::Values("balsa", "netlist"),
                         [](const auto& info) { return info.param; });

// ---------- seeded member chains with planted faults ----------

/// `count` controllers: the first is activated on go, controller i > 0 on
/// c<i>; each activates the next and up to two outputs d<i><j>, joined
/// by random operators.
std::vector<ch::Program> random_chain(std::mt19937& rng, int count) {
  const auto pick = [&](const std::vector<std::string>& options) {
    return options[std::uniform_int_distribution<std::size_t>(
        0, options.size() - 1)(rng)];
  };
  std::vector<ch::Program> chain;
  for (int i = 0; i < count; ++i) {
    std::vector<std::string> pieces;
    if (i + 1 < count) {
      pieces.push_back("(p-to-p active c" + std::to_string(i + 1) + ")");
    }
    const int outputs = std::uniform_int_distribution<int>(
        pieces.empty() ? 1 : 0, 2)(rng);
    for (int j = 0; j < outputs; ++j) {
      pieces.push_back("(p-to-p active d" + std::to_string(i) +
                       std::to_string(j) + ")");
    }
    std::shuffle(pieces.begin(), pieces.end(), rng);
    std::string body = pieces.back();
    for (std::size_t k = pieces.size() - 1; k-- > 0;) {
      body = "(" + pick({"seq", "seq-ov", "enc-early", "enc-middle"}) + " " +
             pieces[k] + " " + body + ")";
    }
    const std::string source =
        i == 0 ? "(rep (enc-early (p-to-p passive go) " + body + "))"
               : "(rep (" + pick({"enc-early", "enc-middle", "enc-late"}) +
                     " (p-to-p passive c" + std::to_string(i) + ") " + body +
                     "))";
    chain.emplace_back("M" + std::to_string(i), ch::parse(source));
  }
  return chain;
}

/// `text` with its first occurrence of `from` replaced, or "" when
/// `from` does not occur.
std::string replace_first(const std::string& text, const std::string& from,
                          const std::string& to) {
  const std::size_t at = text.find(from);
  if (at == std::string::npos) return "";
  return text.substr(0, at) + to + text.substr(at + from.size());
}

TEST(TraceReference, PlantedFaultChainsMatchTheReference) {
  std::mt19937 rng(1016);
  Tally tally;
  int clustered = 0;
  for (int i = 0; i < 120; ++i) {
    SCOPED_TRACE("chain " + std::to_string(i));
    const std::vector<ch::Program> chain =
        random_chain(rng, std::uniform_int_distribution<int>(2, 4)(rng));
    std::vector<const ch::Expr*> members;
    std::vector<std::string> hidden;
    std::optional<ch::Program> merged = chain.front().clone();
    for (std::size_t k = 0; k < chain.size(); ++k) {
      members.push_back(chain[k].body.get());
      if (k == 0) continue;
      hidden.push_back("c" + std::to_string(k));
      if (merged) {
        merged = opt::activation_channel_removal(*merged, chain[k],
                                                 hidden.back());
      }
    }
    if (!merged) continue;
    ++clustered;
    // The clustered controller, then three faults planted in it: a fork
    // serialized, an output handshake doubled, an output's ack dropped.
    const std::string text = ch::to_string(*merged->body);
    const std::size_t d = text.find("(p-to-p active d");
    const std::string output =
        d == std::string::npos ? "" : text.substr(d, text.find(')', d) - d + 1);
    const std::string wire = output.empty()
                                 ? ""
                                 : output.substr(15, output.size() - 16);
    for (const std::string& variant :
         {text, replace_first(text, "(enc-middle", "(seq"),
          output.empty() ? ""
                         : replace_first(text, output,
                                         "(seq " + output + " " + output + ")"),
          output.empty()
              ? ""
              : replace_first(text, output,
                              "(verb ((o " + wire + "_r +)) () ((o " + wire +
                                  "_r -)) ())")}) {
      if (variant.empty()) continue;
      SCOPED_TRACE(variant);
      check_verdict(members, hidden, *ch::parse(variant), tally);
    }
  }
  EXPECT_GT(clustered, 60);
  EXPECT_GT(tally.verdicts, 200);
  EXPECT_GT(tally.counterexamples, 100);
  EXPECT_GT(tally.verdicts - tally.counterexamples, 60);
}

// ---------- seeded random nets and LTSs ----------

/// `machines` token rings of `ring` places each (one token per ring),
/// each with its cycle of moves, plus random jumps within a ring and
/// two-ring synchronizations: 1-safe.  With `unsafe`, a few of the extra
/// transitions also drop a token into another ring or list a post place
/// twice, so most such nets are not 1-safe.
petri::PetriNet random_net(std::mt19937& rng, int machines, int ring,
                           bool unsafe) {
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  petri::PetriNet net;
  for (int m = 0; m < machines; ++m) {
    const int marked = pick(0, ring - 1);
    for (int p = 0; p < ring; ++p) net.add_place(p == marked);
  }
  const auto place = [&](int m, int p) { return m * ring + p; };
  // Visible labels are unique, so the subset construction stays small.
  int labels = 0;
  const auto label = [&] {
    return pick(0, 3) == 0 ? std::string() : "t" + std::to_string(labels++);
  };
  for (int m = 0; m < machines; ++m) {
    for (int p = 0; p < ring; ++p) {
      net.add_transition(
          {label(), {place(m, p)}, {place(m, (p + 1) % ring)}});
    }
  }
  const int extra = pick(0, machines * 4);
  for (int t = 0; t < extra; ++t) {
    petri::Transition tr;
    tr.label = label();
    const int m = pick(0, machines - 1);
    tr.pre.push_back(place(m, pick(0, ring - 1)));
    tr.post.push_back(place(m, pick(0, ring - 1)));
    if (machines > 1 && pick(0, 3) == 0) {
      const int other = (m + pick(1, machines - 1)) % machines;
      tr.pre.push_back(place(other, pick(0, ring - 1)));
      tr.post.push_back(place(other, pick(0, ring - 1)));
    }
    if (unsafe && pick(0, 5) == 0) {
      if (pick(0, 1) == 0) {
        tr.post.push_back(tr.post.front());
      } else {
        tr.post.push_back(place(pick(0, machines - 1), pick(0, ring - 1)));
      }
    }
    net.add_transition(std::move(tr));
  }
  return net;
}

TEST(TraceReference, RandomNetsMatchTheReference) {
  std::mt19937 rng(2002);
  Tally tally;
  int wide = 0;  // nets past one 64-bit marking word, explored in full
  for (int i = 0; i < 300; ++i) {
    const int machines = std::uniform_int_distribution<int>(1, 3)(rng);
    const int ring = std::uniform_int_distribution<int>(2, 80)(rng);
    const bool unsafe = i % 3 == 2;
    const petri::PetriNet net = random_net(rng, machines, ring, unsafe);
    SCOPED_TRACE("net " + std::to_string(i));
    if (check_net(net, tally, 1200) && net.num_places() > 64) ++wide;
  }
  EXPECT_GT(wide, 20);
  EXPECT_GT(tally.ltss, 100);
  EXPECT_GT(tally.limit_throws, 10);
  EXPECT_GT(tally.unsafe_throws, 10);
}

TEST(TraceReference, RandomLtsDeterminizeMatches) {
  // Hand-built shapes: state ids at or past num_states, self-loops, tau
  // cycles, several edges per label.
  std::mt19937 rng(7);
  Tally tally;
  for (int i = 0; i < 300; ++i) {
    petri::Lts lts;
    const int states = std::uniform_int_distribution<int>(1, 60)(rng);
    lts.num_states = std::uniform_int_distribution<int>(0, states)(rng);
    lts.initial = std::uniform_int_distribution<int>(0, states - 1)(rng);
    const int edges = std::uniform_int_distribution<int>(0, 4 * states)(rng);
    std::uniform_int_distribution<int> state(0, states - 1);
    std::uniform_int_distribution<int> label(-1, 4);  // -1 = tau
    for (int e = 0; e < edges; ++e) {
      const int l = label(rng);
      lts.edges.push_back({state(rng), state(rng),
                           l < 0 ? std::string() : "e" + std::to_string(l)});
    }
    SCOPED_TRACE("lts " + std::to_string(i));
    check_lts(lts, tally);
  }
}

}  // namespace
}  // namespace bb::trace
