// On-disk content-addressed controller store: the persistent second tier
// behind minimalist::SynthCache, built crash-only — any sequence of
// crashes (SIGKILL, power loss, full disk) leaves a directory the next
// open fully repairs.
//
// Each entry is one file under the root directory, named by a 128-bit
// hash of the cache key (two independent FNV-1a streams), written
// atomically+durably via util::write_file_atomic so a concurrent reader
// — in this process or another one sharing the directory — either sees a
// complete entry or none.  The entry embeds a format version, the
// access counter of its store (the persisted LRU clock), the full key
// (guarding against hash collisions) and a checksum over the payload;
// anything that fails validation on load is treated as a miss and
// dropped, so a corrupt or stale cache heals itself instead of
// poisoning results.
//
// Opening the store runs a generation-stamped recovery pass:
//   * the generation stamp (file "generation") is bumped, so every
//     repair artifact is attributable to the open that produced it;
//   * orphaned write temporaries (*.tmp.* older than a grace window,
//     the residue of a writer killed mid-write) are scavenged;
//   * every entry is fully validated — version, checksum, embedded key
//     vs file name — and entries that disagree are QUARANTINED (moved
//     to quarantine/, never silently trusted or deleted), because after
//     a crash the mtime/LRU state cannot be trusted to say which copy
//     is live;
//   * an interrupted eviction is completed from its journal (below).
//
// The store is size-capped: after a store pushes the directory past
// `max_bytes`, the least recently used entries are evicted.  Recency is
// a monotonic clock, not mtime, whose 1-second granularity breaks
// ordering under concurrent hits.  A store persists its tick in the
// entry; a load reads and never writes, so its tick stays in memory
// (touched_), and the evictor ranks each entry by the larger of the
// two.  Eviction order therefore survives a restart at store
// granularity, and a hit in another process sharing the directory does
// not protect an entry from this process's evictor.  Eviction first
// publishes an intent journal ("evict.journal", atomic) listing victims
// with the clock each decision was based on; files are unlinked only
// while their clock still matches, and recovery replays the same rule
// against the persisted clock, so a crash mid-eviction can never drop
// an entry that was re-stored after the eviction decision.
//
// Entry format (text, see DESIGN.md §15):
//   bbdc <entry-version>
//   <16-hex checksum of everything after this line>
//   <access counter>
//   <key byte count>
//   <key bytes>
//   <serialized controller: one JSON object, serve/codec.hpp>
//
// Recovery and eviction read only the header lines; only load (and the
// verify_all audit) parse the controller.  A payload of another codec version
// (an entry written by an older build) passes recovery, since its
// framing is intact, and is dropped as corrupt at its first load: one
// miss, then the next store re-creates it.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/minimalist/cache.hpp"

namespace bb::serve {

/// Format revision of a cache entry's framing (the payload inside
/// carries its own codec version).  v2 added the access-counter line.
inline constexpr int kDiskEntryVersion = 2;

/// Default size cap when BB_CACHE_MAX_MB is unset: 256 MiB.
inline constexpr std::uint64_t kDefaultCacheMaxBytes = 256ull << 20;

struct DiskCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t store_errors = 0;     ///< failed writes (cache disabled? disk full?)
  std::uint64_t corrupt_dropped = 0;  ///< load-path checksum/version/parse failures deleted
  std::uint64_t evictions = 0;        ///< entries removed by the size cap
  // ---- recovery pass (the open that constructed this instance) ----
  std::uint64_t recovered_tmp = 0;    ///< orphaned write temporaries scavenged
  std::uint64_t quarantined = 0;      ///< invalid entries moved to quarantine/
  std::uint64_t journal_applied = 0;  ///< evictions completed from the journal
};

class DiskCache : public minimalist::SynthCache::BackingStore {
 public:
  /// Opens (creating if needed) the store rooted at `root` and runs the
  /// crash-recovery pass described above.  Throws std::runtime_error
  /// when the directory cannot be created.
  explicit DiskCache(std::string root,
                     std::uint64_t max_bytes = kDefaultCacheMaxBytes);

  std::optional<minimalist::SynthesizedController> load(
      const std::string& key) override;
  void store(const std::string& key,
             const minimalist::SynthesizedController& ctrl) override;

  DiskCacheStats stats() const;
  const std::string& root() const { return root_; }
  std::uint64_t max_bytes() const { return max_bytes_; }

  /// The recovery generation this open stamped (monotonic across opens
  /// of one directory; quarantine files carry it in their names).
  std::uint64_t generation() const { return generation_; }

  /// Current on-disk entry count (directory scan; test/stats use).
  std::size_t entry_count() const;

  /// The file an entry for `key` lives in (exposed for tests).
  std::string entry_path(const std::string& key) const;

  /// Full integrity audit: re-validates every entry (version, checksum,
  /// embedded key vs file name, payload parse) without mutating
  /// anything.  The chaos harness asserts bad == 0 after every
  /// crash-restart cycle.
  struct VerifyReport {
    std::size_t entries = 0;  ///< files examined
    std::size_t ok = 0;
    std::size_t bad = 0;
    std::string first_bad;  ///< path of the first failing entry
  };
  VerifyReport verify_all() const;

 private:
  struct ParsedEntry {
    std::uint64_t access = 0;
    std::string_view key;
    std::string_view payload;
  };
  /// Validates one raw entry image; nullopt on any framing defect.
  static std::optional<ParsedEntry> parse_entry(std::string_view data);
  /// Renders the entry image for (key, payload) at `access`.
  static std::string render_entry(const std::string& key,
                                  std::string_view payload,
                                  std::uint64_t access);

  /// An entry's LRU clock: the larger of its persisted counter and the
  /// tick of this process's last load of it.  Caller holds mu_.
  std::uint64_t recency_locked(const std::string& filename,
                               std::uint64_t persisted) const;
  /// Deletes a failed entry and counts it; missing files are fine.
  void drop_corrupt(const std::string& path);
  /// Evicts least-recently-used entries (journal-first) until the
  /// directory fits the size cap.  Called after stores, under mu_; a
  /// directory under the cap costs one listing, no entry reads.
  void evict_to_cap();
  /// The open-time repair pass (see the header comment).
  void recover();

  std::string root_;
  std::uint64_t max_bytes_;
  std::uint64_t generation_ = 0;
  mutable std::mutex mu_;  ///< serializes eviction scans and counters
  std::uint64_t access_counter_ = 0;  ///< LRU clock; stores persist it
  /// Entry file name -> clock tick of its last load in this process.
  std::unordered_map<std::string, std::uint64_t> touched_;
  DiskCacheStats stats_;
};

}  // namespace bb::serve
