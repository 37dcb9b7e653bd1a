#include "src/tools/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/designs/designs.hpp"
#include "src/util/io.hpp"

namespace bb::tools {
namespace {

/// Every kind of flag the parser knows, bound to one struct.
struct Parsed {
  bool verbose = false;
  int bumps = 0;
  std::string name;
  std::vector<std::string> tags;
  std::string mode = "fast";
  int level = 5;
  std::uint64_t big = 0;
  std::vector<std::string> operands;
  std::string trace;
  std::string metrics;
};

constexpr const char* kTool = "demo";
constexpr const char* kOperands = "<input> [more]";

void declare(Cli& cli, Parsed* p) {
  cli.flag("--verbose", &p->verbose)
      .flag("--bump", [p] { ++p->bumps; })
      .text("--name", "NAME", &p->name, "CLI_TEST_NAME")
      .text("--tag", "TAG", &p->tags)
      .choice("--mode", {"fast", "slow"}, &p->mode)
      .integer("--level", 0, 10, &p->level, "CLI_TEST_LEVEL")
      .integer("--big", 0, 1ll << 40, &p->big)
      .observability();
}

Parsed parse(std::vector<std::string> args) {
  args.insert(args.begin(), "demo");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  Parsed p;
  Cli cli(kTool, kOperands, 1, 2, "a note line");
  declare(cli, &p);
  p.operands = cli.parse(static_cast<int>(argv.size()), argv.data());
  p.trace = cli.trace_path();
  p.metrics = cli.metrics_path();
  return p;
}

/// `text` as a POSIX extended regex that matches it literally.
std::string literal(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (std::string("\\^$.|?*+()[]{}").find(c) != std::string::npos) {
      out += '\\';
    }
    out += c;
  }
  return out;
}

/// The reason followed by the full generated usage line.
std::string usage_error(const std::string& reason) {
  Parsed p;
  Cli cli(kTool, kOperands, 1, 2, "a note line");
  declare(cli, &p);
  return literal("demo: " + reason + "\n" + cli.usage());
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* var : kVars) ::unsetenv(var);
  }
  void TearDown() override { SetUp(); }
  static constexpr const char* kVars[] = {"CLI_TEST_NAME", "CLI_TEST_LEVEL",
                                          "BB_TRACE", "BB_METRICS"};
};

/// A per-process scratch file name.
std::string scratch(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "." + std::to_string(::getpid())))
      .string();
}

TEST_F(CliTest, DefaultsStayWhenNoFlagIsGiven) {
  const Parsed p = parse({"in"});
  EXPECT_FALSE(p.verbose);
  EXPECT_EQ(p.bumps, 0);
  EXPECT_EQ(p.name, "");
  EXPECT_TRUE(p.tags.empty());
  EXPECT_EQ(p.mode, "fast");
  EXPECT_EQ(p.level, 5);
  EXPECT_EQ(p.trace, "");
  EXPECT_EQ(p.operands, std::vector<std::string>{"in"});
}

TEST_F(CliTest, EveryFlagKindParsesAnywhereAmongTheOperands) {
  const Parsed p = parse({"--verbose", "a", "--bump", "--name", "n1", "--tag",
                          "x", "--mode", "slow", "--bump", "--tag", "y",
                          "--level", "10", "--big", "1099511627776", "b",
                          "--trace", "t.json", "--metrics", "m.json"});
  EXPECT_TRUE(p.verbose);
  EXPECT_EQ(p.bumps, 2);
  EXPECT_EQ(p.name, "n1");
  EXPECT_EQ(p.tags, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(p.mode, "slow");
  EXPECT_EQ(p.level, 10);
  EXPECT_EQ(p.big, 1ull << 40);
  EXPECT_EQ(p.trace, "t.json");
  EXPECT_EQ(p.metrics, "m.json");
  EXPECT_EQ(p.operands, (std::vector<std::string>{"a", "b"}));
}

TEST_F(CliTest, AFlagValueMayStartWithADash) {
  EXPECT_EQ(parse({"in", "--name", "-"}).name, "-");
  EXPECT_EQ(parse({"-", "--level", "0"}).operands,
            std::vector<std::string>{"-"});
}

TEST_F(CliTest, UsageListsEveryFlagAndTheNotes) {
  Parsed p;
  Cli cli(kTool, kOperands, 1, 2, "a note line");
  declare(cli, &p);
  EXPECT_EQ(cli.usage(),
            "usage: demo <input> [more] [--verbose] [--bump] [--name NAME] "
            "[--tag TAG] [--mode fast|slow] [--level N] [--big N] "
            "[--trace FILE] [--metrics FILE]\na note line\n");
}

TEST_F(CliTest, IntegerOutOfRangeExitsTwoWithUsage) {
  EXPECT_EXIT(parse({"in", "--level", "11"}), ::testing::ExitedWithCode(2),
              usage_error("--level expects an integer in [0, 10], got '11'"));
  EXPECT_EXIT(parse({"in", "--level", "-1"}), ::testing::ExitedWithCode(2),
              usage_error("--level expects an integer in [0, 10], got '-1'"));
  EXPECT_EXIT(parse({"in", "--level", "3x"}), ::testing::ExitedWithCode(2),
              usage_error("--level expects an integer in [0, 10], got '3x'"));
}

TEST_F(CliTest, MissingValueExitsTwoWithUsage) {
  EXPECT_EXIT(parse({"in", "--name"}), ::testing::ExitedWithCode(2),
              usage_error("--name needs a value (NAME)"));
}

TEST_F(CliTest, UnknownFlagExitsTwoWithUsage) {
  EXPECT_EXIT(parse({"in", "--nope"}), ::testing::ExitedWithCode(2),
              usage_error("unknown flag '--nope'"));
}

TEST_F(CliTest, ChoiceOutsideItsValuesExitsTwo) {
  EXPECT_EXIT(parse({"in", "--mode", "medium"}), ::testing::ExitedWithCode(2),
              usage_error("--mode expects one of fast|slow, got 'medium'"));
}

TEST_F(CliTest, OperandCountIsEnforced) {
  EXPECT_EXIT(parse({}), ::testing::ExitedWithCode(2),
              usage_error("expects 1 to 2 operand(s), got 0"));
  EXPECT_EXIT(parse({"a", "b", "c"}), ::testing::ExitedWithCode(2),
              usage_error("expects 1 to 2 operand(s), got 3"));
}

TEST_F(CliTest, EnvironmentFillsAnAbsentFlag) {
  ::setenv("CLI_TEST_NAME", "from-env", 1);
  ::setenv("CLI_TEST_LEVEL", "7", 1);
  ::setenv("BB_TRACE", "env-trace.json", 1);
  ::setenv("BB_METRICS", "env-metrics.json", 1);
  const Parsed p = parse({"in"});
  EXPECT_EQ(p.name, "from-env");
  EXPECT_EQ(p.level, 7);
  EXPECT_EQ(p.trace, "env-trace.json");
  EXPECT_EQ(p.metrics, "env-metrics.json");
}

TEST_F(CliTest, AFlagBeatsItsEnvironmentValue) {
  ::setenv("CLI_TEST_NAME", "from-env", 1);
  ::setenv("CLI_TEST_LEVEL", "7", 1);
  ::setenv("BB_TRACE", "env-trace.json", 1);
  const Parsed p =
      parse({"in", "--name", "flag", "--level", "2", "--trace", "t.json"});
  EXPECT_EQ(p.name, "flag");
  EXPECT_EQ(p.level, 2);
  EXPECT_EQ(p.trace, "t.json");
}

TEST_F(CliTest, AFlagSkipsTheCheckOfItsEnvironmentValue) {
  ::setenv("CLI_TEST_LEVEL", "999", 1);
  EXPECT_EQ(parse({"in", "--level", "1"}).level, 1);
}

TEST_F(CliTest, AnEnvironmentValueIsRangeChecked) {
  ::setenv("CLI_TEST_LEVEL", "17592186044416", 1);
  EXPECT_EXIT(parse({"in"}), ::testing::ExitedWithCode(2),
              usage_error("CLI_TEST_LEVEL expects an integer in [0, 10], got "
                          "'17592186044416'"));
}

TEST_F(CliTest, AnEmptyEnvironmentValueCountsAsUnset) {
  ::setenv("CLI_TEST_LEVEL", "", 1);
  ::setenv("CLI_TEST_NAME", "", 1);
  const Parsed p = parse({"in"});
  EXPECT_EQ(p.level, 5);
  EXPECT_EQ(p.name, "");
}

TEST(CliFiles, LoadDesignReadsABuiltInDesignOrAFile) {
  const auto* systolic = designs::all_designs().front();
  EXPECT_EQ(load_design("demo", systolic->name), systolic->source);

  const std::string path = scratch("bb_cli_test_source");
  util::write_file_atomic(path, "procedure p is begin end");
  EXPECT_EQ(load_design("demo", path), "procedure p is begin end");
  std::filesystem::remove(path);
  EXPECT_EXIT(load_design("demo", path),
              ::testing::ExitedWithCode(1),
              "demo: cannot open '.*' \\(and it is not a built-in design\\)");
}

TEST(CliFiles, JsonArtifactGetsANewlineAndAnEmptyPathWritesNothing) {
  const std::string path = scratch("bb_cli_test_artifact");
  testing::internal::CaptureStdout();
  write_json_artifact(path, "{\"a\":1}");
  write_json_artifact("", "{}");
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "wrote " + path + "\n");
  EXPECT_EQ(util::read_file(path), "{\"a\":1}\n");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace bb::tools
