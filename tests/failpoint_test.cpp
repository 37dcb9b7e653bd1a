// The failpoint subsystem: spec grammar, action semantics (error /
// once / every / short / p), hit and trigger accounting, and the
// integration with util::write_file_atomic whose crash windows the
// chaos harness leans on.  Crash actions are exercised end to end by
// bb-chaos (they _exit the process, so a unit test cannot
// observe them from the inside).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "src/util/failpoint.hpp"
#include "src/util/io.hpp"

namespace fs = std::filesystem;
using bb::util::FailpointHit;
using bb::util::Failpoints;
using bb::util::failpoint;

namespace {

/// Skips the test when the build compiled failpoints out (Release
/// without -DBB_FAILPOINTS_ENABLED=ON) and guarantees a clean table
/// before and after each test regardless of BB_FAILPOINTS in the
/// environment.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Failpoints::compiled_in()) {
      GTEST_SKIP() << "failpoints are compiled out of this build";
    }
    Failpoints::clear();
  }
  void TearDown() override { Failpoints::clear(); }
};

}  // namespace

TEST_F(FailpointTest, SpecGrammarAcceptsEveryDocumentedAction) {
  std::string error;
  EXPECT_TRUE(Failpoints::configure(
      "a=error; b=once ;c=every(3);d=short(16);e=crash;f=crash(2);g=p(0.5)",
      &error))
      << error;
  EXPECT_TRUE(Failpoints::configure("", &error)) << error;  // empty clears
  EXPECT_TRUE(Failpoints::configure("a=off", &error)) << error;
}

TEST_F(FailpointTest, MalformedSpecsAreRejectedAndKeepThePreviousTable) {
  ASSERT_TRUE(Failpoints::configure("keep=error"));
  std::string error;
  for (const char* bad :
       {"=error", "noaction", "a=bogus", "a=every(0)", "a=every(x)",
        "a=short(-1)", "a=crash(0)", "a=p(2)", "a=p(nope)", "a=error=twice"}) {
    error.clear();
    EXPECT_FALSE(Failpoints::configure(bad, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // The rejections above must not have clobbered the working table.
  EXPECT_TRUE(failpoint("keep"));
}

TEST_F(FailpointTest, ErrorFiresOnEveryHit) {
  ASSERT_TRUE(Failpoints::set("site", "error"));
  for (int i = 0; i < 3; ++i) {
    const FailpointHit hit = failpoint("site");
    EXPECT_EQ(hit.kind, FailpointHit::Kind::kError);
  }
  EXPECT_EQ(Failpoints::hits("site"), 3u);
  EXPECT_EQ(Failpoints::triggers("site"), 3u);
}

TEST_F(FailpointTest, OnceFiresOnlyOnTheFirstHit) {
  ASSERT_TRUE(Failpoints::set("site", "once"));
  EXPECT_TRUE(failpoint("site"));
  EXPECT_FALSE(failpoint("site"));
  EXPECT_FALSE(failpoint("site"));
  EXPECT_EQ(Failpoints::hits("site"), 3u);
  EXPECT_EQ(Failpoints::triggers("site"), 1u);
}

TEST_F(FailpointTest, EveryNFiresOnMultiplesOfN) {
  ASSERT_TRUE(Failpoints::set("site", "every(2)"));
  EXPECT_FALSE(failpoint("site"));  // hit 1
  EXPECT_TRUE(failpoint("site"));   // hit 2
  EXPECT_FALSE(failpoint("site"));  // hit 3
  EXPECT_TRUE(failpoint("site"));   // hit 4
  EXPECT_EQ(Failpoints::triggers("site"), 2u);
}

TEST_F(FailpointTest, ShortWriteCarriesTheByteCap) {
  ASSERT_TRUE(Failpoints::set("site", "short(16)"));
  const FailpointHit hit = failpoint("site");
  EXPECT_EQ(hit.kind, FailpointHit::Kind::kShortWrite);
  EXPECT_EQ(hit.arg, 16u);
}

TEST_F(FailpointTest, ProbabilityExtremesAreDeterministic) {
  ASSERT_TRUE(Failpoints::set("always", "p(1)"));
  ASSERT_TRUE(Failpoints::set("never", "p(0)"));
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(failpoint("always"));
    EXPECT_FALSE(failpoint("never"));
  }
}

TEST_F(FailpointTest, ClearRestoresTheFastPath) {
  ASSERT_TRUE(Failpoints::set("site", "error"));
  ASSERT_TRUE(failpoint("site"));
  Failpoints::clear();
  EXPECT_FALSE(failpoint("site"));
  EXPECT_EQ(Failpoints::hits("site"), 0u) << "clear drops the accounting";
}

TEST_F(FailpointTest, UnknownSitesNeverFire) {
  ASSERT_TRUE(Failpoints::set("configured", "error"));
  EXPECT_FALSE(failpoint("someone.elses.site"));
  EXPECT_EQ(Failpoints::hits("someone.elses.site"), 0u);
}

// ---- integration with the atomic-write path ----

namespace {

struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag) {
    path = fs::temp_directory_path() /
           (std::string("bb_failpoint_test_") + tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::string s((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  return s;
}

}  // namespace

TEST_F(FailpointTest, InjectedWriteFaultsNeverTearAnAtomicWrite) {
  TempDir dir("wfa");
  const std::string target = (dir.path / "out.txt").string();
  bb::util::write_file_atomic(target, "original");

  // Whichever stage of the atomic write we fail — open, write (full or
  // short), fsync, rename — the caller sees an exception and the
  // previous contents survive untouched.
  for (const char* site :
       {"io.wfa.open", "io.wfa.write", "io.wfa.fsync", "io.wfa.rename"}) {
    Failpoints::clear();
    ASSERT_TRUE(Failpoints::set(site, "once"));
    EXPECT_THROW(bb::util::write_file_atomic(target, "replacement"),
                 std::runtime_error)
        << site;
    EXPECT_EQ(slurp(target), "original") << site;
    EXPECT_EQ(Failpoints::triggers(site), 1u) << site;
    // The fault was one-shot; the retry must succeed and take effect.
    bb::util::write_file_atomic(target, "original");
    EXPECT_EQ(slurp(target), "original") << site;
  }

  Failpoints::clear();
  ASSERT_TRUE(Failpoints::set("io.wfa.write", "short(3)"));
  EXPECT_THROW(bb::util::write_file_atomic(target, "a longer replacement"),
               std::runtime_error);
  Failpoints::clear();
  EXPECT_EQ(slurp(target), "original")
      << "a short write must not leak a truncated file into place";
}
