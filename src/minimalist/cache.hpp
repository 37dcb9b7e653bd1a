// Content-addressed memoization of Burst-Mode synthesis.
//
// Controllers are keyed by bm::Spec::to_canonical() plus the synthesis
// mode: a stable serialization with every signal renamed to its
// positional index, so structurally identical controllers synthesized
// for different component instances (different wire names, same machine)
// share one cache entry.  A hit returns the stored controller with the
// requesting spec's signal names rebound; because synthesis is a pure
// function of the canonical form, the rebound result is byte-identical
// to what a fresh synthesis run would produce, which keeps cached and
// uncached flows deterministic relative to each other.
//
// The in-memory map is the first tier.  A cache can additionally be
// backed by a second, slower tier through the BackingStore hook (the
// serve::DiskCache persists entries across processes); the memory tier
// consults it on a miss and write-throughs every store.  The memory tier
// is bounded: entries beyond `max_entries` are evicted in LRU order so a
// long-running daemon cannot grow the cache without limit.
//
// The cache admits only hazard-free controllers.  Its one admission
// point is flow::synthesize_cached: on a miss it lints the controller
// (MN001-MN003) against the flow table synthesis just extracted and
// stores it only if the lint finds nothing.  A hit therefore needs no
// lint, and it carries no flow table either: the table is extracted, and
// handed to the lint, only on a miss.  This layer sits below src/lint
// and does not check the rule itself, so a direct store() (tests) is
// trusted as-is.
//
// There is no process-wide instance: whoever wants a memo owns a cache
// and hands it to the flow (FlowOptions::cache_instance), so results and
// costs never depend on unrelated earlier work in the same process.
//
// The cache is thread-safe (one mutex around the map and counters) and
// is shared by all workers of the parallel flow.  Backing-store calls
// are made *outside* that mutex, so a slow disk never stalls workers
// that are hitting in memory; the BackingStore implementation must be
// thread-safe itself.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/bm/spec.hpp"
#include "src/minimalist/synth.hpp"

namespace bb::minimalist {

/// The cache key of a (spec, mode) pair under a library/techmap version
/// string.  The version is an opaque salt (the flow passes
/// techmap::CellLibrary::fingerprint()); keys derived under different
/// versions never match, so a persistent tier shared across binary
/// revisions can never serve a controller synthesized for a different
/// technology contract — the stale entries just stop matching and age
/// out of the LRU.  An empty version reproduces the bare (spec, mode)
/// key for callers outside any library context.
std::string cache_key(const bm::Spec& spec, SynthMode mode,
                      std::string_view library_version = {});

/// Which tier satisfied a lookup.
enum class CacheTier {
  kMiss,    ///< neither tier had the entry
  kMemory,  ///< in-memory map hit
  kDisk,    ///< backing-store hit (promoted into memory)
};

class SynthCache {
 public:
  /// Second-tier storage behind the in-memory map.  Keys are the opaque
  /// cache_key() strings; values survive exactly (signal names included
  /// — rebinding happens in the memory tier on the way out).
  /// Implementations must be thread-safe and must treat any internal
  /// failure as a miss (load) or a no-op (store): the cache is an
  /// optimization, never a correctness dependency.
  class BackingStore {
   public:
    virtual ~BackingStore() = default;
    virtual std::optional<SynthesizedController> load(
        const std::string& key) = 0;
    virtual void store(const std::string& key,
                       const SynthesizedController& ctrl) = 0;
  };

  struct Stats {
    std::uint64_t hits = 0;       ///< memory-tier hits
    std::uint64_t disk_hits = 0;  ///< backing-store hits (memory missed)
    std::uint64_t misses = 0;     ///< both tiers missed
    std::uint64_t evictions = 0;  ///< memory entries dropped by the LRU cap
    std::size_t entries = 0;      ///< current memory-tier entry count
    std::size_t max_entries = 0;  ///< the configured cap
  };

  /// Default memory-tier entry cap.  Far above what any batch flow
  /// produces (the four evaluation designs synthesize tens of distinct
  /// controllers), so batch behavior is unchanged; a daemon serving
  /// arbitrary requests stays bounded.
  static constexpr std::size_t kDefaultMaxEntries = 65536;

  /// Returns the cached controller rebound to `spec`'s signal names, or
  /// nullopt on a miss.  Counts a hit or miss; `tier` (when non-null)
  /// reports which tier answered.
  std::optional<SynthesizedController> lookup(const bm::Spec& spec,
                                              SynthMode mode,
                                              CacheTier* tier = nullptr);

  /// Stores a freshly synthesized controller (first writer wins; a
  /// concurrent duplicate insert is a no-op since both results are
  /// identical up to names).  Write-throughs to the backing store.
  /// The caller vouches that `ctrl` passed the MN lint (see above).
  void store(const bm::Spec& spec, SynthMode mode,
             const SynthesizedController& ctrl);

  /// Attaches a second-tier store (not owned; must outlive the cache or
  /// be detached with nullptr first).
  void set_backing_store(BackingStore* store);

  /// Sets the library/techmap version folded into every key this cache
  /// derives (see cache_key()).  The flow and the serve daemon set it
  /// to techmap::CellLibrary::fingerprint() before first use; setting
  /// the same value again is a cheap no-op, so per-call wiring is fine.
  /// Changing the value does NOT flush the memory tier — old-version
  /// entries become unreachable and fall off the LRU.
  void set_library_version(std::string version);
  std::string library_version() const;

  /// Bounds the memory tier to `cap` entries (minimum 1); the least
  /// recently used entries are evicted when the cap is exceeded.
  void set_max_entries(std::size_t cap);

  Stats stats() const;
  void clear();

 private:
  struct Entry {
    SynthesizedController ctrl;
    std::list<std::string>::iterator lru;  ///< position in lru_
  };

  /// Inserts under mu_ (caller holds the lock); evicts LRU overflow.
  void insert_locked(std::string key, const SynthesizedController& ctrl);

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> map_;
  std::list<std::string> lru_;  ///< most recently used at the front
  std::size_t max_entries_ = kDefaultMaxEntries;
  BackingStore* backing_ = nullptr;
  std::string library_version_;
  std::uint64_t hits_ = 0;
  std::uint64_t disk_hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace bb::minimalist
