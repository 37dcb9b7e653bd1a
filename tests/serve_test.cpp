// The synthesis service tier: controller codec round-trips, the
// persistent disk cache (corruption recovery, versioning, eviction,
// shared directories), the bounded in-memory cache, the wire protocol,
// and the daemon end to end over a real Unix-domain socket.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>

#include "src/bm/parse.hpp"
#include "src/minimalist/cache.hpp"
#include "src/minimalist/synth.hpp"
#include "src/serve/client.hpp"
#include "src/serve/codec.hpp"
#include "src/serve/disk_cache.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/util/hash.hpp"
#include "src/util/json.hpp"
#include "src/util/json_parse.hpp"

namespace fs = std::filesystem;
using namespace bb;

namespace {

/// A fresh directory under the system temp root, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag) {
    path = fs::temp_directory_path() /
           (std::string("bb_serve_test_") + tag + "_" +
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

constexpr const char* kWireBms = R"(
name wire
input a_r 0
output a_a 0
0 1 a_r+ | a_a+
1 0 a_r- | a_a-
)";

constexpr const char* kSeqBms = R"(
name seq2
input r 0
output a1 0
output a2 0
0 1 r+ | a1+
1 2 r- | a1-
2 3 r+ | a2+
3 0 r- | a2-
)";

minimalist::SynthesizedController wire_ctrl() {
  return minimalist::synthesize(bm::parse_bms(kWireBms));
}

}  // namespace

// ---- codec ----

TEST(Codec, RoundTripIsByteIdentical) {
  const auto ctrl = wire_ctrl();
  const std::string text = serve::serialize_controller(ctrl);
  std::string error;
  const auto back = serve::deserialize_controller(text, &error);
  ASSERT_TRUE(back.has_value()) << error;
  // Serializing the deserialized controller reproduces the bytes, and
  // the logic is behaviorally identical (.sol rendering included).
  EXPECT_EQ(serve::serialize_controller(*back), text);
  EXPECT_EQ(back->to_sol(), ctrl.to_sol());
  EXPECT_EQ(back->name, ctrl.name);
  EXPECT_EQ(back->inputs, ctrl.inputs);
  EXPECT_EQ(back->outputs, ctrl.outputs);
  EXPECT_EQ(back->initial_state_code, ctrl.initial_state_code);
}

TEST(Codec, RejectsTruncationAndGarbageWithoutThrowing) {
  const std::string text = serve::serialize_controller(wire_ctrl());
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{5}, text.size() / 4, text.size() / 2}) {
    EXPECT_FALSE(serve::deserialize_controller(text.substr(0, cut)))
        << "accepted a prefix of " << cut << " bytes";
  }
  EXPECT_FALSE(serve::deserialize_controller("not a controller at all"));
  EXPECT_FALSE(serve::deserialize_controller(text + "trailing"));
  EXPECT_FALSE(serve::deserialize_controller("[]"));
  // Wrong codec version.
  std::string wrong = text;
  const std::string version = "\"codec\":" +
                              std::to_string(serve::kCodecVersion) + ",";
  ASSERT_EQ(wrong.find(version), 1u) << text;
  wrong.replace(1, version.size(), "\"codec\":999,");
  EXPECT_FALSE(serve::deserialize_controller(wrong));
}

TEST(Codec, RejectsEachDefectWithAReason) {
  const std::string text = serve::serialize_controller(wire_ctrl());
  // Each case edits one member of a valid document; every edit must be
  // rejected with a reason, never thrown.
  const std::pair<const char*, const char*> defects[] = {
      // A member of the wrong type.
      {"\"name\":\"wire\"", "\"name\":7"},
      {"\"inputs\":[\"a_r\"]", "\"inputs\":\"a_r\""},
      {"\"state_bit\":false", "\"state_bit\":0"},
      // A cube whose width is not num_vars, or with a foreign literal.
      {"\"cubes\":[\"11-\"", "\"cubes\":[\"11-1\""},
      {"\"cubes\":[\"11-\"", "\"cubes\":[\"11x\""},
      // Bit strings hold only '0' and '1'.
      {"\"state_codes\":[\"10\"", "\"state_codes\":[\"12\""},
      {"\"initial\":\"10\"", "\"initial\":\"1-\""},
      // num_vars outside [0, 10^6].
      {"\"num_vars\":3,\"functions\"",
       "\"num_vars\":1000001,\"functions\""},
      {"\"num_vars\":3,\"functions\"", "\"num_vars\":-1,\"functions\""},
  };
  for (const auto& [from, to] : defects) {
    std::string doc = text;
    const std::size_t at = doc.find(from);
    ASSERT_NE(at, std::string::npos) << from << " not in " << text;
    doc.replace(at, std::string_view(from).size(), to);
    std::string error;
    std::optional<minimalist::SynthesizedController> ctrl;
    EXPECT_NO_THROW(ctrl = serve::deserialize_controller(doc, &error)) << to;
    EXPECT_FALSE(ctrl.has_value()) << "accepted " << to;
    EXPECT_FALSE(error.empty()) << "no reason for " << to;
  }
}

// ---- disk cache ----

TEST(DiskCache, RoundTripAcrossInstances) {
  TempDir dir("roundtrip");
  const auto ctrl = wire_ctrl();
  {
    serve::DiskCache cache(dir.str());
    cache.store("key1", ctrl);
    EXPECT_EQ(cache.stats().stores, 1u);
  }
  // A second instance on the same directory (a restarted daemon) sees
  // the entry.
  serve::DiskCache cache(dir.str());
  const auto back = cache.load("key1");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(serve::serialize_controller(*back),
            serve::serialize_controller(ctrl));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_FALSE(cache.load("other-key").has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(DiskCache, CorruptEntryIsDroppedAndFileRemoved) {
  TempDir dir("corrupt");
  serve::DiskCache cache(dir.str());
  cache.store("key1", wire_ctrl());
  const std::string path = cache.entry_path("key1");
  ASSERT_TRUE(fs::exists(path));
  // Flip bytes in the middle of the entry.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
    f.write("XXXX", 4);
  }
  EXPECT_FALSE(cache.load("key1").has_value());
  EXPECT_FALSE(fs::exists(path)) << "corrupt entry should be deleted";
  EXPECT_EQ(cache.stats().corrupt_dropped, 1u);
  // The next load is a clean miss, and the key is re-storable.
  EXPECT_FALSE(cache.load("key1").has_value());
  cache.store("key1", wire_ctrl());
  EXPECT_TRUE(cache.load("key1").has_value());
}

TEST(DiskCache, VersionMismatchIsDroppedAndFileRemoved) {
  TempDir dir("version");
  serve::DiskCache cache(dir.str());
  cache.store("key1", wire_ctrl());
  const std::string path = cache.entry_path("key1");
  std::string entry;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    entry = buf.str();
  }
  ASSERT_EQ(entry.rfind("bbdc 2\n", 0), 0u);
  entry.replace(0, 6, "bbdc 3");  // a future format revision
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << entry;
  }
  EXPECT_FALSE(cache.load("key1").has_value());
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(cache.stats().corrupt_dropped, 1u);
}

TEST(DiskCache, LineCodecEntryFromAnOlderBuildIsDroppedOnceThenRestored) {
  // An entry as a build before the JSON codec wrote it: today's bbdc
  // framing around a "bbctrl 1" line-format payload.
  constexpr const char* kLineCodecWire =
      "bbctrl 1\nname wire\ninputs 1\na_r\noutputs 1\na_a\n"
      "state_bits 2\ny0\ny1\nnum_vars 3\nfunctions 3\n"
      "fn 0 3 2 a_a\n11-\n1-1\nfn 1 3 3 y0\n-10\n0-1\n01-\n"
      "fn 1 3 3 y1\n11-\n1-1\n-01\nstate_codes 2\n10\n01\n"
      "initial 10\nend\n";
  TempDir dir("upgrade");
  const std::string path = serve::DiskCache(dir.str()).entry_path("key1");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << util::frame("bbdc", serve::kDiskEntryVersion,
                       std::string("1\n4\nkey1\n") + kLineCodecWire);
  }
  // Its framing is intact, so the open-time recovery pass keeps it.
  serve::DiskCache cache(dir.str());
  EXPECT_EQ(cache.stats().quarantined, 0u);
  ASSERT_TRUE(fs::exists(path));
  // The first load drops it as a corrupt payload: a miss, file removed.
  EXPECT_FALSE(cache.load("key1").has_value());
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(cache.stats().corrupt_dropped, 1u);
  // A store re-creates the entry in the current codec; the next load hits.
  cache.store("key1", wire_ctrl());
  EXPECT_TRUE(cache.load("key1").has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().corrupt_dropped, 1u);
}

TEST(DiskCache, KeyMismatchOnHashCollisionIsAMiss) {
  TempDir dir("collide");
  serve::DiskCache cache(dir.str());
  cache.store("key1", wire_ctrl());
  // Simulate a (astronomically unlikely) filename collision: copy the
  // entry of key1 to where key2 would live.  The embedded key protects
  // key2's load from returning key1's controller.
  fs::copy_file(cache.entry_path("key1"), cache.entry_path("key2"));
  EXPECT_FALSE(cache.load("key2").has_value());
  EXPECT_TRUE(cache.load("key1").has_value());
}

TEST(DiskCache, EvictsLeastRecentlyUsedPastSizeCap) {
  TempDir dir("evict");
  const auto ctrl = wire_ctrl();
  const std::uint64_t entry_size =
      serve::serialize_controller(ctrl).size() + 64;  // + framing slack
  // Cap fits roughly two entries, so the third store must evict.
  serve::DiskCache cache(dir.str(), 2 * entry_size);
  cache.store("old", ctrl);
  cache.store("mid", ctrl);
  // Touch "old": recency rides the persisted access counter (not mtime,
  // whose 1-second granularity cannot order back-to-back operations),
  // so the load promotes it past "mid".
  ASSERT_TRUE(cache.load("old").has_value());
  cache.store("new", ctrl);
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_FALSE(fs::exists(cache.entry_path("mid")))
      << "the least recently used entry should be evicted first";
  EXPECT_TRUE(fs::exists(cache.entry_path("old")))
      << "the touched entry must survive the eviction";
  EXPECT_TRUE(fs::exists(cache.entry_path("new")));
}

// ---- crash recovery ----

TEST(DiskCache, RecoveryScavengesStaleWriteTemporaries) {
  TempDir dir("scavenge");
  std::string entry;
  {
    serve::DiskCache cache(dir.str());
    cache.store("k", wire_ctrl());
    entry = cache.entry_path("k");
  }
  // Plant the residue of a writer killed mid-write (stale, past the
  // grace window) and a temp a live writer could still own (fresh).
  const fs::path stale = dir.path / "dead.bbc.tmp.999.1";
  const fs::path fresh = dir.path / "dead.bbc.tmp.999.2";
  for (const fs::path& p : {stale, fresh}) {
    std::ofstream(p, std::ios::binary) << "torn bytes";
  }
  fs::last_write_time(
      stale, fs::file_time_type::clock::now() - std::chrono::minutes(5));

  serve::DiskCache cache(dir.str());
  EXPECT_EQ(cache.stats().recovered_tmp, 1u);
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(fresh)) << "a temp inside the grace window may "
                                    "belong to a live writer";
  EXPECT_TRUE(cache.load("k").has_value());
  EXPECT_EQ(cache.verify_all().bad, 0u);
}

TEST(DiskCache, RecoveryQuarantinesInvalidEntriesInsteadOfTrustingThem) {
  TempDir dir("quarantine");
  std::string good_path, bad_path;
  std::uint64_t gen = 0;
  {
    serve::DiskCache cache(dir.str());
    gen = cache.generation();
    cache.store("good", wire_ctrl());
    cache.store("bad", wire_ctrl());
    good_path = cache.entry_path("good");
    bad_path = cache.entry_path("bad");
  }
  // Corrupt "bad" behind the store's back (bit rot, torn hardware
  // write): the reopen must refuse to trust it.
  {
    std::fstream f(bad_path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(bad_path) / 2));
    f.write("XXXX", 4);
  }

  serve::DiskCache cache(dir.str());
  EXPECT_EQ(cache.generation(), gen + 1) << "each open bumps the stamp";
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_FALSE(fs::exists(bad_path));
  // Quarantined means preserved for forensics, not silently deleted.
  std::size_t quarantined_files = 0;
  for (const auto& it : fs::directory_iterator(dir.path / "quarantine")) {
    (void)it;
    ++quarantined_files;
  }
  EXPECT_EQ(quarantined_files, 1u);
  EXPECT_TRUE(cache.load("good").has_value());
  EXPECT_EQ(cache.verify_all().bad, 0u);
}

TEST(DiskCache, RecoveryCompletesJournaledEvictionWithoutDroppingLiveEntries) {
  TempDir dir("journal");
  std::string stale_path, live_path;
  {
    serve::DiskCache cache(dir.str());
    cache.store("stale", wire_ctrl());  // access counter 1
    cache.store("live", wire_ctrl());   // access counter 2
    stale_path = cache.entry_path("stale");
    live_path = cache.entry_path("live");
  }
  // Hand-write the journal a crashed evictor would have left: both
  // entries condemned at access counter 1.  "stale" still carries 1 and
  // must go; "live" was touched after the decision (its persisted
  // counter is 2 > 1) and must survive the replay.
  {
    std::ofstream journal(dir.path / "evict.journal", std::ios::binary);
    journal << "bbdj 1\n"
            << "1 " << fs::path(stale_path).filename().string() << "\n"
            << "1 " << fs::path(live_path).filename().string() << "\n";
  }

  serve::DiskCache cache(dir.str());
  EXPECT_EQ(cache.stats().journal_applied, 1u);
  EXPECT_FALSE(fs::exists(stale_path));
  EXPECT_TRUE(fs::exists(live_path))
      << "an entry touched after the eviction decision must never drop";
  EXPECT_FALSE(fs::exists(dir.path / "evict.journal"))
      << "a replayed journal is consumed";
  EXPECT_TRUE(cache.load("live").has_value());
  EXPECT_EQ(cache.verify_all().bad, 0u);
}

TEST(DiskCache, VerifyAllCountsEveryDefect) {
  TempDir dir("verify");
  serve::DiskCache cache(dir.str());
  cache.store("a", wire_ctrl());
  cache.store("b", wire_ctrl());
  auto report = cache.verify_all();
  EXPECT_EQ(report.entries, 2u);
  EXPECT_EQ(report.ok, 2u);
  EXPECT_EQ(report.bad, 0u);
  {
    std::ofstream out(cache.entry_path("b"),
                      std::ios::binary | std::ios::trunc);
    out << "bbdc 2\nnot a real entry";
  }
  report = cache.verify_all();
  EXPECT_EQ(report.entries, 2u);
  EXPECT_EQ(report.bad, 1u);
  EXPECT_EQ(report.first_bad, cache.entry_path("b"));
}

TEST(DiskCache, ConcurrentSharedDirectory) {
  TempDir dir("shared");
  // Two independent DiskCache instances on one directory, as two daemon
  // processes sharing BB_CACHE_DIR would be, hammered concurrently.
  serve::DiskCache a(dir.str());
  serve::DiskCache b(dir.str());
  const auto ctrl = wire_ctrl();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      serve::DiskCache& cache = (t % 2 == 0) ? a : b;
      for (int i = 0; i < 20; ++i) {
        const std::string key = "key" + std::to_string(i % 5);
        cache.store(key, ctrl);
        const auto got = cache.load(key);
        // A concurrent load may race a store of the same key, but the
        // atomic rename means it sees a complete entry or none.
        if (got) {
          EXPECT_EQ(serve::serialize_controller(*got),
                    serve::serialize_controller(ctrl));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(a.load("key" + std::to_string(i)).has_value());
  }
}

// ---- tiered SynthCache ----

TEST(SynthCacheTiers, DiskTierPersistsAcrossCacheInstances) {
  TempDir dir("tiers");
  const bm::Spec spec = bm::parse_bms(kWireBms);
  serve::DiskCache disk(dir.str());
  minimalist::CacheTier tier;
  {
    minimalist::SynthCache mem;
    mem.set_backing_store(&disk);
    minimalist::synthesize_cached(spec, minimalist::SynthMode::kSpeed, mem,
                                  nullptr, &tier);
    EXPECT_EQ(tier, minimalist::CacheTier::kMiss);
    minimalist::synthesize_cached(spec, minimalist::SynthMode::kSpeed, mem,
                                  nullptr, &tier);
    EXPECT_EQ(tier, minimalist::CacheTier::kMemory);
  }
  // A fresh memory tier (daemon restart) hits the disk tier, and the
  // result is byte-identical to a fresh synthesis.
  minimalist::SynthCache mem;
  mem.set_backing_store(&disk);
  const auto cached = minimalist::synthesize_cached(
      spec, minimalist::SynthMode::kSpeed, mem, nullptr, &tier);
  EXPECT_EQ(tier, minimalist::CacheTier::kDisk);
  EXPECT_EQ(cached.to_sol(), wire_ctrl().to_sol());
  EXPECT_EQ(mem.stats().disk_hits, 1u);
  // The disk hit was promoted into memory.
  minimalist::synthesize_cached(spec, minimalist::SynthMode::kSpeed, mem,
                                nullptr, &tier);
  EXPECT_EQ(tier, minimalist::CacheTier::kMemory);
}

TEST(SynthCacheTiers, MemoryTierEvictsLruAtCap) {
  const bm::Spec wire = bm::parse_bms(kWireBms);
  const bm::Spec seq = bm::parse_bms(kSeqBms);
  const bm::Spec wire_area = wire;  // same spec, distinct (spec, mode) key
  minimalist::SynthCache cache;
  cache.set_max_entries(2);
  minimalist::synthesize_cached(wire, minimalist::SynthMode::kSpeed, cache);
  minimalist::synthesize_cached(seq, minimalist::SynthMode::kSpeed, cache);
  // Touch `wire` so `seq` is the least recently used...
  minimalist::CacheTier tier;
  minimalist::synthesize_cached(wire, minimalist::SynthMode::kSpeed, cache,
                                nullptr, &tier);
  EXPECT_EQ(tier, minimalist::CacheTier::kMemory);
  // ...and a third entry evicts `seq`, not `wire`.
  minimalist::synthesize_cached(wire_area, minimalist::SynthMode::kArea,
                                cache);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  minimalist::synthesize_cached(wire, minimalist::SynthMode::kSpeed, cache,
                                nullptr, &tier);
  EXPECT_EQ(tier, minimalist::CacheTier::kMemory);
  minimalist::synthesize_cached(seq, minimalist::SynthMode::kSpeed, cache,
                                nullptr, &tier);
  EXPECT_EQ(tier, minimalist::CacheTier::kMiss) << "seq should be evicted";
}

// ---- protocol ----

TEST(Protocol, ParsesSynthesizeRequestWithOptions) {
  serve::Request req;
  std::string error;
  ASSERT_TRUE(serve::parse_request(
      R"({"schema_version":1,"id":"r1","op":"synthesize","design":"systolic",)"
      R"("options":{"jobs":2,"cache":false,"work_budget":1000}})",
      &req, &error))
      << error;
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.design, "systolic");
  ASSERT_TRUE(req.options.jobs.has_value());
  EXPECT_EQ(*req.options.jobs, 2);
  ASSERT_TRUE(req.options.cache.has_value());
  EXPECT_FALSE(*req.options.cache);
  minimalist::SynthCache cache;
  const auto options = serve::apply_options(req.options, 0, &cache);
  EXPECT_EQ(options.jobs, 2);
  EXPECT_EQ(options.cache_instance, nullptr);
  EXPECT_EQ(serve::apply_options({}, 0, &cache).cache_instance, &cache);
  EXPECT_EQ(options.work_budget, 1000);
}

TEST(Protocol, ParsesAnalyzeRequestWithSarifOption) {
  serve::Request req;
  std::string error;
  ASSERT_TRUE(serve::parse_request(
      R"({"schema_version":1,"id":"a1","op":"analyze","design":"systolic",)"
      R"("options":{"sarif":true,"no_analyze":true}})",
      &req, &error))
      << error;
  EXPECT_EQ(req.op, "analyze");
  EXPECT_TRUE(req.options.sarif);
  EXPECT_TRUE(req.options.no_analyze);
  // analyze needs exactly one of design/source, like synthesize.
  EXPECT_FALSE(serve::parse_request(
      R"({"schema_version":1,"op":"analyze"})", &req, &error));
  EXPECT_FALSE(serve::parse_request(
      R"({"schema_version":1,"op":"analyze","design":"a","source":"b"})",
      &req, &error));
}

TEST(Protocol, ParsesIncrementalRequestsAndPolicesTheProjectName) {
  serve::Request req;
  std::string error;
  ASSERT_TRUE(serve::parse_request(
      R"({"schema_version":1,"op":"synthesize_incremental",)"
      R"("source":"procedure p (sync s) is begin sync s end"})",
      &req, &error))
      << error;
  EXPECT_EQ(req.op, "synthesize_incremental");
  EXPECT_EQ(req.project, "default") << "project defaults when absent";
  ASSERT_TRUE(serve::parse_request(
      R"({"schema_version":1,"op":"synthesize_incremental","source":"x",)"
      R"("project":"team-42_a"})",
      &req, &error))
      << error;
  EXPECT_EQ(req.project, "team-42_a");
  // The op needs inline source (a design name has no project state), and
  // the project name is a path component — traversal characters are
  // rejected at the protocol boundary.
  EXPECT_FALSE(serve::parse_request(
      R"({"schema_version":1,"op":"synthesize_incremental"})", &req,
      &error));
  EXPECT_FALSE(serve::parse_request(
      R"({"schema_version":1,"op":"synthesize_incremental","source":"x",)"
      R"("project":"../escape"})",
      &req, &error));
  EXPECT_FALSE(serve::parse_request(
      R"({"schema_version":1,"op":"synthesize_incremental","source":"x",)"
      R"("project":""})",
      &req, &error));
}

TEST(Protocol, RejectsDefectiveRequests) {
  serve::Request req;
  std::string error;
  EXPECT_FALSE(serve::parse_request("not json", &req, &error));
  EXPECT_FALSE(serve::parse_request("{}", &req, &error));  // no version
  EXPECT_FALSE(serve::parse_request(
      R"({"schema_version":99,"op":"ping"})", &req, &error));
  EXPECT_FALSE(serve::parse_request(
      R"({"schema_version":1,"op":"frobnicate"})", &req, &error));
  // synthesize needs exactly one input.
  EXPECT_FALSE(serve::parse_request(
      R"({"schema_version":1,"op":"synthesize"})", &req, &error));
  EXPECT_FALSE(serve::parse_request(
      R"({"schema_version":1,"op":"synthesize","design":"a","source":"b"})",
      &req, &error));
  EXPECT_FALSE(serve::parse_request(
      R"({"schema_version":1,"op":"synthesize_bm"})", &req, &error));
  // Typed option members reject wrong types.
  EXPECT_FALSE(serve::parse_request(
      R"({"schema_version":1,"op":"synthesize","design":"a",)"
      R"("options":{"jobs":"two"}})",
      &req, &error));
}

TEST(Protocol, ParsesMetricsAndTraceRequests) {
  serve::Request req;
  std::string error;
  ASSERT_TRUE(serve::parse_request(
      R"({"schema_version":1,"op":"metrics","format":"both"})", &req, &error))
      << error;
  EXPECT_EQ(req.op, "metrics");
  EXPECT_EQ(req.format, "both");
  ASSERT_TRUE(serve::parse_request(
      R"({"schema_version":1,"op":"trace","filter":"abc","last":5,)"
      R"("trace_id":"t9"})",
      &req, &error))
      << error;
  EXPECT_EQ(req.op, "trace");
  EXPECT_EQ(req.filter, "abc");
  EXPECT_EQ(req.last, 5);
  EXPECT_EQ(req.trace_id, "t9");
  EXPECT_FALSE(serve::parse_request(
      R"({"schema_version":1,"op":"metrics","format":"xml"})", &req, &error));
  EXPECT_FALSE(serve::parse_request(
      R"({"schema_version":1,"op":"trace","last":-1})", &req, &error));
}

// Each op accepts the options it reads and refuses every other option
// some op reads; a member no op knows is ignored, so the schema can grow.
struct OpCase {
  const char* op;
  const char* input;  ///< the members the op needs besides "options"
  std::vector<std::string> reads;
};

class OpOptions : public testing::TestWithParam<OpCase> {};

TEST_P(OpOptions, AcceptsOnlyTheOptionsItReads) {
  const OpCase& c = GetParam();
  // One value for every option any op reads, and how it decodes.
  const std::pair<std::string, std::string> all[] = {
      {"unoptimized", "true"}, {"max_states", "8"},    {"jobs", "2"},
      {"cache", "false"},      {"strict", "true"},     {"lint", "false"},
      {"work_budget", "100"},  {"verilog", "true"},    {"sarif", "true"},
      {"no_analyze", "true"}};
  const auto decoded = [](const serve::RequestOptions& o,
                          const std::string& name) {
    if (name == "unoptimized") return o.unoptimized;
    if (name == "max_states") return o.max_states == 8;
    if (name == "jobs") return o.jobs == 2;
    if (name == "cache") return o.cache == false;
    if (name == "strict") return o.strict == true;
    if (name == "lint") return o.lint == false;
    if (name == "work_budget") return o.work_budget == 100;
    if (name == "verilog") return o.verilog;
    if (name == "sarif") return o.sarif;
    return name == "no_analyze" && o.no_analyze;
  };
  const auto request = [&c](const std::string& options) {
    return std::string(R"({"schema_version":1,"op":")") + c.op + "\"" +
           c.input + R"(,"options":{)" + options + "}}";
  };
  std::string read = R"("future_knob":1)";
  for (const auto& [name, value] : all) {
    const std::string member = "\"" + name + "\":" + value;
    if (std::find(c.reads.begin(), c.reads.end(), name) != c.reads.end()) {
      read += "," + member;
      continue;
    }
    serve::Request req;
    std::string error;
    EXPECT_FALSE(serve::parse_request(request(member), &req, &error))
        << c.op << " took " << name;
    EXPECT_EQ(error, std::string("op '") + c.op +
                         "' does not take option '" + name + "'");
  }
  serve::Request req;
  std::string error;
  ASSERT_TRUE(serve::parse_request(request(read), &req, &error)) << error;
  EXPECT_EQ(req.op, c.op);
  for (const std::string& name : c.reads) {
    EXPECT_TRUE(decoded(req.options, name)) << c.op << " dropped " << name;
  }
}

const std::vector<std::string> kFlowOptionNames = {
    "unoptimized", "max_states",  "jobs",   "cache",
    "strict",      "lint",        "work_budget", "verilog"};

INSTANTIATE_TEST_SUITE_P(
    Protocol, OpOptions,
    testing::Values(
        OpCase{"ping", "", {}}, OpCase{"stats", "", {}},
        OpCase{"metrics", "", {}}, OpCase{"trace", "", {}},
        OpCase{"shutdown", "", {}},
        OpCase{"synthesize", R"(,"design":"stack")", kFlowOptionNames},
        OpCase{"synthesize_bm", R"(,"bms":"name w")",
               {"cache", "work_budget"}},
        OpCase{"analyze", R"(,"design":"stack")",
               {"unoptimized", "max_states", "sarif", "no_analyze"}},
        OpCase{"synthesize_incremental", R"(,"source":"x")",
               kFlowOptionNames}),
    [](const testing::TestParamInfo<OpCase>& info) {
      return std::string(info.param.op);
    });

// ---- daemon end to end ----

namespace {

struct RunningServer {
  serve::Server server;
  std::thread thread;
  explicit RunningServer(serve::ServerOptions options)
      : server(std::move(options)) {
    thread = std::thread([this] { server.run(); });
  }
  ~RunningServer() {
    server.stop();
    thread.join();
  }
};

std::string bm_request(const std::string& id, const char* bms) {
  bb::util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", serve::kProtocolVersion);
  w.member("id", id);
  w.member("op", "synthesize_bm");
  w.member("bms", bms);
  w.end_object();
  return w.str();
}

/// A full-flow synthesize request with an explicit trace context and the
/// cache disabled, so every run exercises the parallel controller stage.
std::string traced_design_request(const std::string& id,
                                  const std::string& trace_id) {
  bb::util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", serve::kProtocolVersion);
  w.member("id", id);
  w.member("trace_id", trace_id);
  w.member("op", "synthesize");
  w.member("design", "systolic");
  w.key("options").begin_object();
  w.member("cache", false);
  w.member("jobs", 2);
  w.end_object();
  w.end_object();
  return w.str();
}

std::size_t count_occurrences(std::string_view text, std::string_view needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string_view::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

}  // namespace

TEST(Server, AnswersOverSocketAndPersistsAcrossRestarts) {
  TempDir dir("e2e");
  const std::string socket_path = (dir.path / "bb.sock").string();
  serve::ServerOptions options;
  options.socket_path = socket_path;
  options.jobs = 2;
  options.cache_dir = (dir.path / "cache").string();
  const std::string systolic_request =
      R"({"schema_version":1,"op":"synthesize","design":"systolic"})";
  std::string cold_report;
  {
    RunningServer running(options);
    serve::Client client(socket_path);
    // Liveness and a bad request on the same connection.
    auto doc = util::parse_json(client.roundtrip(
        R"({"schema_version":1,"op":"ping"})", 10000));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->get_string("status"), "ok");
    doc = util::parse_json(client.roundtrip("this is not json", 10000));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->get_string("status"), "bad_request");
    // First synthesis misses every tier.
    doc = util::parse_json(
        client.roundtrip(bm_request("r1", kWireBms), 60000));
    ASSERT_TRUE(doc.has_value());
    ASSERT_EQ(doc->get_string("status"), "ok");
    const util::JsonValue* result = doc->get("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->get_string("cache"), "miss");
    EXPECT_NE(result->get_string("sol").find(".fn"), std::string::npos);
    // Structured errors carry stage and rule.
    doc = util::parse_json(client.roundtrip(
        R"({"schema_version":1,"id":"bad","op":"synthesize_bm",)"
        R"("bms":"name x\n0 1 bogus | a+\n"})",
        60000));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->get_string("status"), "error");
    ASSERT_NE(doc->get("error"), nullptr);
    EXPECT_EQ(doc->get("error")->get_string("stage"), "parse");
    // A whole built-in design, synthesized cold.
    doc = util::parse_json(client.roundtrip(systolic_request, 600000));
    ASSERT_TRUE(doc.has_value());
    ASSERT_EQ(doc->get_string("status"), "ok");
    ASSERT_NE(doc->get("result"), nullptr);
    cold_report = doc->get("result")->get_string("report");
    EXPECT_FALSE(cold_report.empty());
  }
  // A new daemon on the same cache directory serves the disk tier.
  {
    RunningServer running(options);
    serve::Client client(socket_path);
    const auto doc = util::parse_json(
        client.roundtrip(bm_request("r2", kWireBms), 60000));
    ASSERT_TRUE(doc.has_value());
    ASSERT_EQ(doc->get_string("status"), "ok");
    EXPECT_EQ(doc->get("result")->get_string("cache"), "disk-hit");
    // The stats op reports the tiered counters.
    const auto stats = util::parse_json(client.roundtrip(
        R"({"schema_version":1,"op":"stats"})", 10000));
    ASSERT_TRUE(stats.has_value());
    const util::JsonValue* cache = stats->get("stats")->get("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->get_int("disk_hits", -1), 1);
    // The design's every controller comes back from disk, unchanged.
    const auto warm =
        util::parse_json(client.roundtrip(systolic_request, 600000));
    ASSERT_TRUE(warm.has_value());
    ASSERT_EQ(warm->get_string("status"), "ok");
    const util::JsonValue* result = warm->get("result");
    ASSERT_NE(result, nullptr);
    const util::JsonValue* tiers = result->get("cache");
    ASSERT_NE(tiers, nullptr);
    EXPECT_EQ(tiers->get_int("misses", -1), 0);
    EXPECT_GE(tiers->get_int("disk_hits", -1), 1);
    EXPECT_EQ(result->get_string("report"), cold_report);
  }
}

TEST(Server, AnalyzeOpReportsLintAndSarif) {
  TempDir dir("analyze");
  serve::ServerOptions options;
  options.socket_path = (dir.path / "bb.sock").string();
  RunningServer running(options);
  serve::Client client(options.socket_path);

  bb::util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", serve::kProtocolVersion);
  w.member("id", "a1");
  w.member("op", "analyze");
  w.member("source",
           "procedure tick (sync t) is begin loop sync t end end");
  w.key("options").begin_object();
  w.member("sarif", true);
  w.end_object();
  w.end_object();

  const auto doc = util::parse_json(client.roundtrip(w.str(), 60000));
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->get_string("status"), "ok");
  const util::JsonValue* result = doc->get("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->get_int("errors", -1), 0);
  EXPECT_EQ(result->get_int("warnings", -1), 0);
  const util::JsonValue* lint = result->get("lint");
  ASSERT_NE(lint, nullptr);
  EXPECT_EQ(lint->get_int("schema_version", -1), 1);
  EXPECT_NE(result->get_string("sarif").find("\"2.1.0\""),
            std::string::npos);
}

TEST(Server, RefusesAnOptionTheOpDoesNotRead) {
  // analyze never reads a work budget or the cache switch; answering ok
  // would claim a budgeted, uncached run that did not happen.
  TempDir dir("refuse");
  serve::ServerOptions options;
  options.socket_path = (dir.path / "bb.sock").string();
  RunningServer running(options);
  serve::Client client(options.socket_path);
  const auto doc = util::parse_json(client.roundtrip(
      R"({"schema_version":1,"id":"a1","op":"analyze","design":"stack",)"
      R"("options":{"work_budget":1,"cache":false}})",
      60000));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("status"), "bad_request");
  EXPECT_EQ(doc->get_string("message"),
            "op 'analyze' does not take option 'work_budget'");
  EXPECT_EQ(running.server.stats().bad_requests, 1u);
  EXPECT_EQ(running.server.stats().completed, 0u);
}

TEST(Server, WorkBudgetEnvReachesSynthesizeBm) {
  // synthesize_bm resolves its budget through flow::effective_work_budget,
  // as synthesize does: BB_WORK_BUDGET caps a request that names none,
  // and the request's own work_budget (-1 = unlimited) wins over it.
  TempDir dir("bm-budget");
  serve::ServerOptions options;
  options.socket_path = (dir.path / "bb.sock").string();
  RunningServer running(options);
  serve::Client client(options.socket_path);
  const auto status = [&](const std::string& id, bool unlimited) {
    bb::util::JsonWriter w;
    w.begin_object();
    w.member("schema_version", serve::kProtocolVersion);
    w.member("id", id);
    w.member("op", "synthesize_bm");
    w.member("bms", kSeqBms);
    w.key("options").begin_object();
    w.member("cache", false);
    if (unlimited) w.member("work_budget", static_cast<std::int64_t>(-1));
    w.end_object();
    w.end_object();
    const auto doc = util::parse_json(client.roundtrip(w.str(), 60000));
    if (!doc.has_value()) return std::string("unparsable reply");
    const util::JsonValue* error = doc->get("error");
    return doc->get_string("status") +
           (error != nullptr ? " " + error->get_string("rule") : "");
  };
  setenv("BB_WORK_BUDGET", "1", 1);
  EXPECT_EQ(status("capped", false), "error FL002");
  EXPECT_EQ(status("explicit", true), "ok");
  unsetenv("BB_WORK_BUDGET");
  EXPECT_EQ(status("unset", false), "ok");
}

TEST(Server, ShedsLoadWhenAdmissionIsFull) {
  TempDir dir("shed");
  serve::ServerOptions options;
  options.socket_path = (dir.path / "bb.sock").string();
  options.max_inflight = 0;  // everything sheds, deterministically
  RunningServer running(options);
  serve::Client client(options.socket_path);
  const auto doc = util::parse_json(
      client.roundtrip(bm_request("r1", kWireBms), 10000));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("status"), "overloaded");
  EXPECT_EQ(running.server.stats().overloaded, 1u);
}

TEST(Server, ShutdownOpDrainsAndExits) {
  TempDir dir("shutdown");
  serve::ServerOptions options;
  options.socket_path = (dir.path / "bb.sock").string();
  serve::Server server(options);
  std::thread thread([&server] { server.run(); });
  {
    serve::Client client(options.socket_path);
    const auto doc = util::parse_json(client.roundtrip(
        R"({"schema_version":1,"op":"shutdown"})", 10000));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->get_string("status"), "ok");
  }
  thread.join();  // run() must return on its own
  EXPECT_TRUE(server.stopping());
}

TEST(Server, DuplicateRequestIdsAreAnsweredFromTheDedupeTable) {
  TempDir dir("dedupe");
  serve::ServerOptions options;
  options.socket_path = (dir.path / "bb.sock").string();
  options.cache_dir = (dir.path / "cache").string();
  RunningServer running(options);
  serve::Client client(options.socket_path);
  const std::string line = bm_request("retry-1", kWireBms);
  // A retrying client resends the same id after losing the first reply;
  // the server must hand back the recorded reply, byte for byte, so the
  // client cannot observe two different answers for one request.
  const std::string first = client.roundtrip(line, 60000);
  const std::string second = client.roundtrip(line, 60000);
  EXPECT_EQ(first, second);
  EXPECT_GE(running.server.stats().deduped, 1u);
  const auto doc = util::parse_json(second);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("status"), "ok");
}

TEST(Server, IdempotentRetryHelperSurvivesConnectionLoss) {
  TempDir dir("retry");
  serve::ServerOptions options;
  options.socket_path = (dir.path / "bb.sock").string();
  options.cache_dir = (dir.path / "cache").string();
  RunningServer running(options);
  serve::RetryOptions retry;
  retry.attempts = 3;
  retry.timeout_ms = 60000;
  retry.backoff_ms = 10;
  serve::RetryStats stats;
  const std::string reply = serve::Client::request_idempotent(
      options.socket_path, bm_request("retry-helper", kWireBms), retry,
      &stats);
  const auto doc = util::parse_json(reply);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("status"), "ok");
  EXPECT_GE(stats.attempts, 1);
}

TEST(Server, SlowTrickleConnectionsGetAStructuredTimeout) {
  TempDir dir("trickle");
  serve::ServerOptions options;
  options.socket_path = (dir.path / "bb.sock").string();
  options.line_timeout_ms = 200;  // short so the test stays fast
  RunningServer running(options);
  // A raw socket that sends half a request and then stalls forever.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                options.socket_path.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char partial[] = "{\"schema_version\":1,\"op\":";
  ASSERT_EQ(::send(fd, partial, sizeof(partial) - 1, 0),
            static_cast<ssize_t>(sizeof(partial) - 1));
  // The server must answer with a structured error instead of holding
  // the connection (and its buffer) hostage indefinitely.
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
    if (reply.find('\n') != std::string::npos) break;
  }
  ::close(fd);
  const auto doc = util::parse_json(reply);
  ASSERT_TRUE(doc.has_value()) << "reply was: " << reply;
  EXPECT_EQ(doc->get_string("status"), "bad_request");
  EXPECT_EQ(running.server.stats().line_timeouts, 1u);
}

// ---- live telemetry ----

TEST(Server, TraceIdsAreEchoedOrMinted) {
  TempDir dir("traceid");
  serve::ServerOptions options;
  options.socket_path = (dir.path / "bb.sock").string();
  RunningServer running(options);
  serve::Client client(options.socket_path);
  // A client-supplied trace context rides the envelope back unchanged.
  auto doc = util::parse_json(client.roundtrip(
      R"({"schema_version":1,"op":"ping","trace_id":"cli-7"})", 10000));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("status"), "ok");
  EXPECT_EQ(doc->get_string("trace_id"), "cli-7");
  // Without one, the server mints a srv-<seq> id so the request is still
  // traceable after the fact.
  doc = util::parse_json(client.roundtrip(
      R"({"schema_version":1,"op":"ping"})", 10000));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("trace_id").rfind("srv-", 0), 0u)
      << doc->get_string("trace_id");
}

TEST(Server, MetricsOpServesJsonAndPrometheusWithoutRestart) {
  TempDir dir("metrics");
  serve::ServerOptions options;
  options.socket_path = (dir.path / "bb.sock").string();
  RunningServer running(options);
  serve::Client client(options.socket_path);
  ASSERT_NE(client.roundtrip(bm_request("m1", kWireBms), 60000), "");

  // Default format: the deterministic JSON snapshot, with the per-op
  // latency histogram for the op we just ran.
  auto doc = util::parse_json(client.roundtrip(
      R"({"schema_version":1,"op":"metrics"})", 10000));
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->get_string("status"), "ok");
  const util::JsonValue* metrics = doc->get("metrics");
  ASSERT_NE(metrics, nullptr);
  const util::JsonValue* counters = metrics->get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->get_int("serve.requests", 0), 1);
  const util::JsonValue* histograms = metrics->get("histograms");
  ASSERT_NE(histograms, nullptr);
  const util::JsonValue* h = histograms->get("serve.op.synthesize_bm.us");
  ASSERT_NE(h, nullptr);
  EXPECT_GE(h->get_int("count", 0), 1);
  EXPECT_NE(h->get("p50"), nullptr);
  EXPECT_NE(h->get("p99"), nullptr);

  // Prometheus exposition on the same live server, no restart.
  doc = util::parse_json(client.roundtrip(
      R"({"schema_version":1,"op":"metrics","format":"prometheus"})", 10000));
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->get_string("status"), "ok");
  EXPECT_EQ(doc->get("metrics"), nullptr)
      << "prometheus-only replies omit the JSON snapshot";
  const std::string text = doc->get_string("prometheus");
  EXPECT_NE(text.find("# TYPE bb_serve_requests counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("bb_serve_op_synthesize_bm_us_bucket{le=\"+Inf\"}"),
            std::string::npos);

  // "both" carries the two renderings of one snapshot.
  doc = util::parse_json(client.roundtrip(
      R"({"schema_version":1,"op":"metrics","format":"both"})", 10000));
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->get_string("status"), "ok");
  EXPECT_NE(doc->get("metrics"), nullptr);
  EXPECT_FALSE(doc->get_string("prometheus").empty());
}

TEST(Server, TraceContextPropagatesThroughThePoolWithoutBleed) {
  TempDir dir("tracectx");
  serve::ServerOptions options;
  options.socket_path = (dir.path / "bb.sock").string();
  options.jobs = 2;
  RunningServer running(options);

  // Two concurrent full-flow requests with distinct trace contexts and
  // the cache off: their controller units interleave on the same worker
  // pool, so any ambient-context leak shows up as a span tagged with the
  // other request's id.
  std::vector<std::thread> clients;
  for (const char* ctx : {"ctx-a", "ctx-b"}) {
    clients.emplace_back([&options, ctx] {
      serve::Client client(options.socket_path);
      const auto doc = util::parse_json(client.roundtrip(
          traced_design_request(std::string("req-") + ctx, ctx), 120000));
      ASSERT_TRUE(doc.has_value());
      EXPECT_EQ(doc->get_string("status"), "ok");
      EXPECT_EQ(doc->get_string("trace_id"), ctx);
    });
  }
  for (std::thread& t : clients) t.join();

  serve::Client client(options.socket_path);
  for (const char* ctx : {"ctx-a", "ctx-b"}) {
    const char* other = ctx[4] == 'a' ? "ctx-b" : "ctx-a";
    const std::string reply = client.roundtrip(
        std::string(R"({"schema_version":1,"op":"trace","filter":")") + ctx +
            R"("})",
        10000);
    const auto doc = util::parse_json(reply);
    ASSERT_TRUE(doc.has_value());
    ASSERT_EQ(doc->get_string("status"), "ok");
    // The request span plus the flow stages it fanned out, all tagged
    // with this request's context...
    EXPECT_GE(count_occurrences(
                  reply, std::string("\"trace_id\":\"") + ctx + "\""),
              2u)
        << reply;
    EXPECT_EQ(count_occurrences(reply, "\"name\":\"serve.request\""), 1u);
    EXPECT_GE(count_occurrences(reply, "\"name\":\"flow.controller\""), 1u)
        << "pool-side controller spans must inherit the request context";
    // ...and none of the sibling's.
    EXPECT_EQ(count_occurrences(
                  reply, std::string("\"trace_id\":\"") + other + "\""),
              0u)
        << "cross-request trace bleed through the thread pool";
  }
}

TEST(Server, EventLogRecordsCompletionsAndSlowExemplars) {
  TempDir dir("eventlog");
  serve::ServerOptions options;
  options.socket_path = (dir.path / "bb.sock").string();
  options.log_path = (dir.path / "events.jsonl").string();
  options.slow_ms = 0;  // every request is a slow exemplar
  RunningServer running(options);
  serve::Client client(options.socket_path);
  auto doc = util::parse_json(client.roundtrip(
      R"({"schema_version":1,"op":"ping","trace_id":"ev-1"})", 10000));
  ASSERT_TRUE(doc.has_value());
  const std::string reply =
      client.roundtrip(bm_request("ev-synth", kWireBms), 60000);
  ASSERT_EQ(util::parse_json(reply)->get_string("status"), "ok");

  // Records are appended before the reply is written, so both requests
  // are on disk by now.
  std::ifstream in(options.log_path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t records = 0;
  bool saw_ping = false, saw_synth = false;
  while (std::getline(in, line)) {
    ++records;
    const auto rec = util::parse_json(line);
    ASSERT_TRUE(rec.has_value()) << "unparseable record: " << line;
    EXPECT_GT(rec->get_int("ts_ms", 0), 0);
    EXPECT_EQ(rec->get_string("outcome"), "ok");
    if (rec->get_string("trace_id") == "ev-1") {
      saw_ping = true;
      EXPECT_EQ(rec->get_string("op"), "ping");
    }
    if (rec->get_string("op") == "synthesize_bm") {
      saw_synth = true;
      EXPECT_EQ(rec->get_string("id"), "ev-synth");
      EXPECT_EQ(rec->get_string("cache"), "miss");
      EXPECT_GE(rec->get_int("duration_us", -1), 0);
      // slow_ms=0 marks it slow and attaches the request's spans.
      EXPECT_TRUE(rec->get_bool("slow", false)) << line;
      EXPECT_NE(rec->get("spans"), nullptr) << line;
    }
  }
  EXPECT_GE(records, 2u);
  EXPECT_TRUE(saw_ping);
  EXPECT_TRUE(saw_synth);
}

TEST(Client, ReplyDeadlineThrowsADistinctTimeoutType) {
  TempDir dir("timeout");
  const std::string socket_path = (dir.path / "mute.sock").string();
  // A listener that accepts the connection into its backlog and never
  // answers: the send succeeds, the reply deadline passes.
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_path.c_str());
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 4), 0);

  serve::Client client(socket_path);
  bool caught_timeout = false;
  try {
    client.roundtrip(R"({"schema_version":1,"op":"ping"})", 200);
  } catch (const serve::ClientTimeout& e) {
    caught_timeout = true;
    // Still a runtime_error, so existing catch-all callers keep working.
    EXPECT_NE(static_cast<const std::runtime_error*>(&e), nullptr);
  }
  EXPECT_TRUE(caught_timeout);
  ::close(lfd);
}
