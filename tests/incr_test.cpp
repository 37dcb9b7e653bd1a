// The incremental-build subsystem: manifest framing and corruption
// recovery, unit-digest stability, multi-procedure parsing,
// library-versioned cache keys, and the end-to-end contract — an edit
// rebuilds exactly the affected units, the spliced output stays
// byte-identical to a full rebuild, and the manifest is the only file a
// project holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "src/balsa/compile.hpp"
#include "src/balsa/digest.hpp"
#include "src/balsa/parser.hpp"
#include "src/balsa/printer.hpp"
#include "src/bm/parse.hpp"
#include "src/designs/designs.hpp"
#include "src/hsnet/to_ch.hpp"
#include "src/incr/build.hpp"
#include "src/incr/manifest.hpp"
#include "src/minimalist/cache.hpp"
#include "src/minimalist/synth.hpp"
#include "src/opt/cluster.hpp"
#include "src/util/failpoint.hpp"
#include "src/util/hash.hpp"
#include "src/util/json.hpp"

#ifndef BB_EXAMPLES_DIR
#error "BB_EXAMPLES_DIR must name the examples directory"
#endif

namespace fs = std::filesystem;
using namespace bb;

namespace {

/// A fresh directory under the system temp root, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag) {
    path = fs::temp_directory_path() /
           (std::string("bb_incr_test_") + tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

void spill(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// A two-unit program whose procedures are deliberately different shapes
// so their digests and artifacts cannot collide.
constexpr const char* kProgram = R"(
procedure relay (input in : 8; output out : 8) is
  variable v : 8
begin
  loop
    in -> v ; out <- v
  end
end

procedure ticker (sync tick; sync tock) is
begin
  loop
    sync tick ; sync tock
  end
end
)";

// Same program with `relay` edited (an extra buffered stage) and
// `ticker` untouched.
constexpr const char* kProgramEdited = R"(
procedure relay (input in : 8; output out : 8) is
  variable v : 8
  variable w : 8
begin
  loop
    in -> v ; w := v ; out <- w
  end
end

procedure ticker (sync tick; sync tock) is
begin
  loop
    sync tick ; sync tock
  end
end
)";

incr::Manifest sample_manifest() {
  incr::Manifest m;
  m.library = "lib-fp";
  m.options = "opt-fp";
  incr::UnitRecord unit;
  unit.name = "relay";
  unit.digest = "0123456789abcdef";
  unit.controllers = 2;
  unit.report = "controller report\nwith \"quotes\" and lines\n";
  unit.verilog = "module relay();\nendmodule\n";
  m.units.push_back(unit);
  incr::UnitRecord other;
  other.name = "ticker";
  other.digest = "ffffffffffffffff";
  m.units.push_back(other);
  return m;
}

}  // namespace

// ---- manifest serialization ----

TEST(Manifest, RoundTripPreservesEveryField) {
  const incr::Manifest m = sample_manifest();
  std::string error;
  const auto back = incr::manifest_from_bytes(incr::manifest_to_bytes(m),
                                              &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->library, "lib-fp");
  EXPECT_EQ(back->options, "opt-fp");
  ASSERT_EQ(back->units.size(), 2u);
  EXPECT_EQ(back->units[0].name, "relay");
  EXPECT_EQ(back->units[0].digest, "0123456789abcdef");
  EXPECT_EQ(back->units[0].controllers, 2u);
  EXPECT_EQ(back->units[0].report, m.units[0].report);
  EXPECT_EQ(back->units[0].verilog, m.units[0].verilog);
  EXPECT_EQ(back->units[1].name, "ticker");
  EXPECT_EQ(back->units[1].controllers, 0u);
  EXPECT_EQ(back->units[1].report, "");
  // Serialization is deterministic — a round trip is a byte fixed point.
  EXPECT_EQ(incr::manifest_to_bytes(*back), incr::manifest_to_bytes(m));
}

TEST(Manifest, FindLocatesUnitsByName) {
  const incr::Manifest m = sample_manifest();
  ASSERT_NE(m.find("ticker"), nullptr);
  EXPECT_EQ(m.find("ticker")->digest, "ffffffffffffffff");
  EXPECT_EQ(m.find("nope"), nullptr);
}

TEST(Manifest, AnyFramingDefectIsRejectedWithAReason) {
  const std::string good = incr::manifest_to_bytes(sample_manifest());
  std::vector<std::string> bad;
  bad.push_back("");                                  // empty
  bad.push_back("not a manifest at all");             // bad magic
  bad.push_back(good.substr(0, good.size() / 2));     // truncated
  {
    std::string flipped = good;                       // corrupted body
    flipped[flipped.size() - 2] ^= 0x20;
    bad.push_back(flipped);
  }
  {
    // Version bump: readers of version 2 must refuse a version 3 file.
    std::string bumped = good;
    const auto pos = bumped.find("bbpm 2");
    ASSERT_NE(pos, std::string::npos);
    bumped[pos + 5] = '3';
    bad.push_back(bumped);
  }
  for (const auto& bytes : bad) {
    std::string error;
    EXPECT_FALSE(incr::manifest_from_bytes(bytes, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

TEST(Manifest, ArtifactRoundTripIsByteExact) {
  // A unit's stored output bytes (its artifact: report + Verilog) come
  // back byte for byte, whatever bytes they hold — control characters,
  // quotes, backslashes, NUL and high bytes included.
  std::string every_byte;
  for (int c = 0; c < 256; ++c) every_byte.push_back(static_cast<char>(c));
  incr::Manifest m = sample_manifest();
  m.units[0].report = every_byte;
  m.units[0].verilog = "module relay();\n  // \"\\\t\r\nendmodule\n";
  std::string error;
  const auto back =
      incr::manifest_from_bytes(incr::manifest_to_bytes(m), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->units[0].report, every_byte);
  EXPECT_EQ(back->units[0].verilog, m.units[0].verilog);
  // A unit record that lost its artifact bytes is a framing defect.
  for (const std::string missing : {"report", "verilog"}) {
    util::JsonWriter w;
    w.begin_object();
    w.member("schema_version", incr::kManifestVersion);
    w.member("library", m.library);
    w.member("options", m.options);
    w.key("units").begin_array();
    w.begin_object()
        .member("name", "relay")
        .member("digest", "0123456789abcdef")
        .member("controllers", 1);
    if (missing != "report") w.member("report", "r");
    if (missing != "verilog") w.member("verilog", "v");
    w.end_object().end_array().end_object();
    EXPECT_FALSE(incr::manifest_from_bytes(
                     util::frame("bbpm", incr::kManifestVersion, w.str()))
                     .has_value())
        << "missing " << missing;
  }
}

TEST(Manifest, DiskRoundTripIsByteExact) {
  TempDir dir("disk");
  const incr::Manifest m = sample_manifest();
  std::string error;
  ASSERT_TRUE(incr::store_manifest(dir.str(), m, &error)) << error;
  const auto loaded = incr::load_manifest(dir.str(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(incr::manifest_to_bytes(*loaded), incr::manifest_to_bytes(m));
}

TEST(Manifest, CorruptedOnDiskManifestLoadsAsAbsent) {
  TempDir dir("corrupt");
  std::string error;
  ASSERT_TRUE(incr::store_manifest(dir.str(), sample_manifest(), &error));
  spill(incr::manifest_path(dir.str()), "bbpm 2\ngarbage");
  EXPECT_FALSE(incr::load_manifest(dir.str(), &error).has_value());
  EXPECT_FALSE(error.empty());
}

// ---- unit digests ----

TEST(Digest, ReparseReprintIsAFixedPoint) {
  const auto procs = balsa::parse_program(kProgram);
  ASSERT_EQ(procs.size(), 2u);
  for (const auto& proc : procs) {
    const std::string d1 = balsa::procedure_digest(proc);
    const auto reparsed = balsa::parse_procedure(balsa::to_source(proc));
    EXPECT_EQ(balsa::procedure_digest(reparsed), d1) << proc.name;
    EXPECT_EQ(d1.size(), 16u);
  }
}

TEST(Digest, FormattingIsInvisibleNamesAreNot) {
  const auto program = balsa::parse_program(kProgram);
  const auto& base = program[0];
  // Whitespace/comment noise digests identically...
  const std::string noisy =
      "-- a comment\nprocedure relay (input in : 8;\n"
      "    output out : 8) is\n  variable v : 8\nbegin\n"
      "  loop in -> v ;\n       out <- v end\nend\n";
  EXPECT_EQ(balsa::procedure_digest(balsa::parse_procedure(noisy)),
            balsa::procedure_digest(base));
  // ...but renaming a port must dirty the unit: the Verilog interface
  // changes even though the structure does not.
  const std::string renamed =
      "procedure relay (input in : 8; output egress : 8) is\n"
      "  variable v : 8\nbegin\n  loop\n    in -> v ; egress <- v\n"
      "  end\nend\n";
  EXPECT_NE(balsa::procedure_digest(balsa::parse_procedure(renamed)),
            balsa::procedure_digest(base));
}

TEST(Digest, UnitDigestFoldsInOptionsAndLibrary) {
  const auto program = balsa::parse_program(kProgram);
  const auto& proc = program[0];
  const std::string base = incr::unit_digest(proc, "opts-a", "lib-a");
  EXPECT_EQ(incr::unit_digest(proc, "opts-a", "lib-a"), base);
  EXPECT_NE(incr::unit_digest(proc, "opts-b", "lib-a"), base);
  EXPECT_NE(incr::unit_digest(proc, "opts-a", "lib-b"), base);
}

TEST(Digest, OptionsFingerprintIgnoresByteNeutralKnobs) {
  flow::FlowOptions a = flow::FlowOptions::optimized();
  flow::FlowOptions b = a;
  minimalist::SynthCache cache;
  b.jobs = 7;
  b.cache_instance = &cache;
  EXPECT_EQ(incr::options_fingerprint(a), incr::options_fingerprint(b));
  b.max_states = a.max_states + 1;
  EXPECT_NE(incr::options_fingerprint(a), incr::options_fingerprint(b));
  flow::FlowOptions c = flow::FlowOptions::unoptimized();
  EXPECT_NE(incr::options_fingerprint(a), incr::options_fingerprint(c));
}

// ---- multi-procedure parsing ----

TEST(ParseProgram, ParsesUnitsInDeclarationOrder) {
  const auto procs = balsa::parse_program(kProgram);
  ASSERT_EQ(procs.size(), 2u);
  EXPECT_EQ(procs[0].name, "relay");
  EXPECT_EQ(procs[1].name, "ticker");
}

TEST(ParseProgram, RejectsDuplicateNamesAndTrailingGarbage) {
  const std::string dup = std::string(kProgram) +
                          "\nprocedure relay (sync s) is\nbegin\n"
                          "  sync s\nend\n";
  EXPECT_THROW(balsa::parse_program(dup), balsa::ParseError);
  EXPECT_THROW(balsa::parse_program("procedure x (sync s) is begin sync s "
                                    "end trailing"),
               balsa::ParseError);
  EXPECT_THROW(balsa::parse_program("   \n-- only comments\n"),
               balsa::ParseError);
}

// ---- library-versioned cache keys (satellite: staleness fix) ----

namespace {

constexpr const char* kWireBms = R"(
name wire
input a_r 0
output a_a 0
0 1 a_r+ | a_a+
1 0 a_r- | a_a-
)";

}  // namespace

TEST(CacheKey, LibraryVersionSaltsTheKey) {
  const auto spec = bm::parse_bms(kWireBms);
  const auto mode = minimalist::SynthMode::kSpeed;
  const std::string unsalted = minimalist::cache_key(spec, mode);
  EXPECT_EQ(minimalist::cache_key(spec, mode, ""), unsalted)
      << "empty version must reproduce the legacy key format";
  const std::string v1 = minimalist::cache_key(spec, mode, "lib-v1");
  const std::string v2 = minimalist::cache_key(spec, mode, "lib-v2");
  EXPECT_NE(v1, unsalted);
  EXPECT_NE(v1, v2);
}

TEST(CacheKey, ChangingTheLibraryVersionInvalidatesTheCache) {
  minimalist::SynthCache cache;
  cache.set_library_version("lib-v1");
  const auto spec = bm::parse_bms(kWireBms);
  const auto ctrl = minimalist::synthesize(spec);
  cache.store(spec, minimalist::SynthMode::kSpeed, ctrl);
  EXPECT_TRUE(cache.lookup(spec, minimalist::SynthMode::kSpeed).has_value());
  // A techmap upgrade must not serve the old library's netlists.
  cache.set_library_version("lib-v2");
  EXPECT_FALSE(cache.lookup(spec, minimalist::SynthMode::kSpeed).has_value());
  cache.set_library_version("lib-v1");
  EXPECT_TRUE(cache.lookup(spec, minimalist::SynthMode::kSpeed).has_value());
}

// ---- end-to-end incremental builds ----

namespace {

struct IncrTest : ::testing::Test {
  TempDir dir{"build"};
  flow::FlowOptions options = flow::FlowOptions::optimized();
};

}  // namespace

TEST_F(IncrTest, ColdThenWarmThenEditRebuildsExactlyTheDirtyUnit) {
  const auto cold = incr::build(kProgram, dir.str(), options);
  EXPECT_TRUE(cold.full_rebuild);
  EXPECT_EQ(cold.units_rebuilt, 2u);
  EXPECT_EQ(cold.units_reused, 0u);
  EXPECT_TRUE(cold.manifest_stored);
  ASSERT_EQ(cold.units.size(), 2u);
  EXPECT_EQ(cold.units[0].name, "relay");
  EXPECT_FALSE(cold.units[0].reused);

  const auto warm = incr::build(kProgram, dir.str(), options);
  EXPECT_FALSE(warm.full_rebuild);
  EXPECT_EQ(warm.units_rebuilt, 0u);
  EXPECT_EQ(warm.units_reused, 2u);
  EXPECT_EQ(warm.controllers_rebuilt, 0u);
  EXPECT_EQ(warm.verilog, cold.verilog) << "warm splice must be byte-exact";
  EXPECT_EQ(warm.report, cold.report);
  EXPECT_EQ(warm.timings.incr_units_reused, 2u);

  const auto edited = incr::build(kProgramEdited, dir.str(), options);
  EXPECT_FALSE(edited.full_rebuild);
  EXPECT_EQ(edited.units_rebuilt, 1u);
  EXPECT_EQ(edited.units_reused, 1u);
  ASSERT_EQ(edited.units.size(), 2u);
  EXPECT_FALSE(edited.units[0].reused) << "relay was edited";
  EXPECT_TRUE(edited.units[1].reused) << "ticker was not";

  // The spliced output equals a from-scratch build of the edited program.
  TempDir scratch("scratch");
  const auto full = incr::build(kProgramEdited, scratch.str(), options);
  EXPECT_EQ(edited.verilog, full.verilog);
  EXPECT_EQ(edited.report, full.report);
}

TEST_F(IncrTest, ANoOpBuildLeavesTheManifestUntouched) {
  const auto cold = incr::build(kProgram, dir.str(), options);
  EXPECT_EQ(cold.full_rebuild_reason, "no manifest");
  const std::string path = incr::manifest_path(dir.str());
  struct stat before {};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);

  const auto warm = incr::build(kProgram, dir.str(), options);
  EXPECT_EQ(warm.units_reused, 2u);
  EXPECT_TRUE(warm.manifest_stored);
  struct stat after {};
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  EXPECT_EQ(after.st_ino, before.st_ino) << "a no-op build wrote the manifest";
  EXPECT_EQ(after.st_mtim.tv_sec, before.st_mtim.tv_sec);
  EXPECT_EQ(after.st_mtim.tv_nsec, before.st_mtim.tv_nsec);

  // An edit build still publishes a new manifest.
  const auto edited = incr::build(kProgramEdited, dir.str(), options);
  EXPECT_EQ(edited.units_rebuilt, 1u);
  EXPECT_TRUE(edited.manifest_stored);
  struct stat replaced {};
  ASSERT_EQ(::stat(path.c_str(), &replaced), 0);
  EXPECT_NE(replaced.st_ino, before.st_ino);
  const auto rewarmed = incr::build(kProgramEdited, dir.str(), options);
  EXPECT_EQ(rewarmed.units_reused, 2u);
}

TEST_F(IncrTest, CorruptManifestDegradesToAFullRebuildNeverWrongOutput) {
  const auto cold = incr::build(kProgram, dir.str(), options);
  for (const char* garbage :
       {"", "total garbage", "bbpm 3\n0000000000000000\n{}",
        "bbpm 2\n0000000000000000\n{\"units\":[]}"}) {
    spill(incr::manifest_path(dir.str()), garbage);
    const auto rebuilt = incr::build(kProgram, dir.str(), options);
    EXPECT_TRUE(rebuilt.full_rebuild) << '"' << garbage << '"';
    EXPECT_FALSE(rebuilt.full_rebuild_reason.empty());
    EXPECT_EQ(rebuilt.units_rebuilt, 2u);
    EXPECT_EQ(rebuilt.verilog, cold.verilog)
        << "corruption may cost time, never bytes";
  }
  // The rebuild rewrote a good manifest: the next build reuses again.
  const auto warm = incr::build(kProgram, dir.str(), options);
  EXPECT_EQ(warm.units_reused, 2u);
}

TEST_F(IncrTest, MissingArtifactDirtiesOnlyThatUnit) {
  // A manifest that no longer holds one unit's record (and so none of its
  // stored bytes) rebuilds that unit alone and reuses the rest.
  const auto cold = incr::build(kProgram, dir.str(), options);
  std::string error;
  auto manifest = incr::load_manifest(dir.str(), &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  ASSERT_NE(manifest->find("relay"), nullptr);
  manifest->units.erase(manifest->units.begin());
  ASSERT_EQ(manifest->find("relay"), nullptr);
  ASSERT_TRUE(incr::store_manifest(dir.str(), *manifest, &error)) << error;
  const auto rebuilt = incr::build(kProgram, dir.str(), options);
  EXPECT_FALSE(rebuilt.full_rebuild);
  EXPECT_EQ(rebuilt.units_rebuilt, 1u);
  EXPECT_EQ(rebuilt.units_reused, 1u);
  ASSERT_EQ(rebuilt.units.size(), 2u);
  EXPECT_FALSE(rebuilt.units[0].reused) << "relay lost its record";
  EXPECT_TRUE(rebuilt.units[1].reused) << "ticker kept its record";
  EXPECT_EQ(rebuilt.verilog, cold.verilog);
  EXPECT_EQ(rebuilt.report, cold.report);
}

TEST_F(IncrTest, OptionChangesDirtyEveryUnit) {
  incr::build(kProgram, dir.str(), options);
  flow::FlowOptions changed = options;
  changed.max_states = options.max_states + 1;
  const auto rebuilt = incr::build(kProgram, dir.str(), changed);
  EXPECT_EQ(rebuilt.units_rebuilt, 2u);
  EXPECT_EQ(rebuilt.units_reused, 0u);
  // Byte-neutral knobs must NOT dirty the project.
  flow::FlowOptions neutral = changed;
  minimalist::SynthCache cache;
  neutral.jobs = 3;
  neutral.cache_instance = &cache;
  const auto warm = incr::build(kProgram, dir.str(), neutral);
  EXPECT_EQ(warm.units_reused, 2u);
}

TEST_F(IncrTest, TheManifestIsTheOnlyProjectFile) {
  const auto list = [this] {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir.path)) {
      names.push_back(entry.path().filename().string());
    }
    return names;
  };
  const std::vector<std::string> only{incr::kManifestFile};
  incr::build(kProgram, dir.str(), options);
  EXPECT_EQ(list(), only) << "after a cold build";
  const auto edited = incr::build(kProgramEdited, dir.str(), options);
  EXPECT_EQ(edited.units_rebuilt, 1u);
  EXPECT_EQ(list(), only) << "after an edit build";
}

TEST_F(IncrTest, VersionOneManifestIsAFullRebuild) {
  const auto cold = incr::build(kProgram, dir.str(), options);
  std::string error;
  const auto current = incr::load_manifest(dir.str(), &error);
  ASSERT_TRUE(current.has_value()) << error;
  // The version-1 layout: output bytes lived in artifacts/ files, and
  // the manifest named them.  Same units, same digests.
  util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", 1);
  w.member("library", current->library);
  w.member("options", current->options);
  w.key("units").begin_array();
  for (const incr::UnitRecord& unit : current->units) {
    w.begin_object()
        .member("name", unit.name)
        .member("digest", unit.digest)
        .member("artifact", unit.name + "-" + unit.digest + ".bba");
    w.key("controllers").begin_array().end_array().end_object();
  }
  w.end_array().end_object();
  spill(incr::manifest_path(dir.str()), util::frame("bbpm", 1, w.str()));

  const auto rebuilt = incr::build(kProgram, dir.str(), options);
  EXPECT_TRUE(rebuilt.full_rebuild);
  EXPECT_FALSE(rebuilt.full_rebuild_reason.empty());
  EXPECT_EQ(rebuilt.units_rebuilt, 2u);
  EXPECT_EQ(rebuilt.report, cold.report);
  EXPECT_EQ(rebuilt.verilog, cold.verilog);
  const auto warm = incr::build(kProgram, dir.str(), options);
  EXPECT_EQ(warm.units_reused, 2u) << "the rebuild wrote a version-2 file";
}

TEST_F(IncrTest, ParseFailuresDoNotPoisonTheProject) {
  incr::build(kProgram, dir.str(), options);
  EXPECT_THROW(incr::build("procedure broken (", dir.str(), options),
               balsa::ParseError);
  const auto warm = incr::build(kProgram, dir.str(), options);
  EXPECT_EQ(warm.units_reused, 2u) << "a failed build must leave the "
                                      "manifest of the last good one";
}

TEST_F(IncrTest, ManifestStoreFailureIsReportedButTheBuildStandsAlone) {
  if (!util::Failpoints::compiled_in()) {
    GTEST_SKIP() << "failpoints are compiled out of this build";
  }
  util::Failpoints::clear();
  ASSERT_TRUE(util::Failpoints::set("incr.manifest.store", "once"));
  const auto cold = incr::build(kProgram, dir.str(), options);
  util::Failpoints::clear();
  EXPECT_FALSE(cold.manifest_stored);
  EXPECT_EQ(cold.units_rebuilt, 2u);
  EXPECT_FALSE(cold.verilog.empty());
  // Nothing was persisted, so the next build is cold again — slower,
  // never wrong — and this time it sticks.
  const auto retry = incr::build(kProgram, dir.str(), options);
  EXPECT_TRUE(retry.manifest_stored);
  EXPECT_EQ(retry.verilog, cold.verilog);
  const auto warm = incr::build(kProgram, dir.str(), options);
  EXPECT_EQ(warm.units_reused, 2u);
}

// ---- controller counts ----

namespace {

/// The controllers a procedure resolves to, re-derived from its
/// netlist: the clustered (or wrapped) control programs on the synthesis
/// path, one per control component in the template baseline.
std::size_t reference_controllers(const balsa::Procedure& procedure,
                                  const flow::FlowOptions& options) {
  const auto net = balsa::compile(procedure);
  if (!options.cluster) return net.control_ids().size();
  auto programs = hsnet::control_programs(net);
  opt::ClusterOptions copts;
  copts.max_states = options.max_states;
  return opt::optimize(std::move(programs), copts).size();
}

/// The four paper designs and every examples/*.balsa program.
std::vector<std::pair<std::string, std::string>> count_corpus() {
  std::vector<std::pair<std::string, std::string>> corpus;
  for (const designs::DesignInfo* design : designs::all_designs()) {
    corpus.emplace_back(design->name, design->source);
  }
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(BB_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".balsa") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    corpus.emplace_back(path.filename().string(), text.str());
  }
  return corpus;
}

}  // namespace

TEST(IncrControllers, CountsMatchAReclusteringReference) {
  const auto corpus = count_corpus();
  ASSERT_GE(corpus.size(), 7u) << "four designs plus the example programs";
  for (const flow::FlowOptions& options :
       {flow::FlowOptions::optimized(), flow::FlowOptions::unoptimized()}) {
    for (const auto& [name, source] : corpus) {
      SCOPED_TRACE(name + (options.cluster ? " optimized" : " unoptimized"));
      TempDir dir("count");
      const auto procedures = balsa::parse_program(source);
      const auto cold = incr::build(source, dir.str(), options);
      const auto warm = incr::build(source, dir.str(), options);
      ASSERT_EQ(cold.units.size(), procedures.size());
      ASSERT_EQ(warm.units_reused, procedures.size());
      for (std::size_t i = 0; i < procedures.size(); ++i) {
        const std::size_t expected =
            reference_controllers(procedures[i], options);
        EXPECT_GT(expected, 0u) << procedures[i].name;
        EXPECT_EQ(cold.units[i].controllers, expected) << procedures[i].name;
        EXPECT_EQ(warm.units[i].controllers, expected) << procedures[i].name;
      }
    }
  }
}
