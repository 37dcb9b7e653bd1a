#include "src/minimalist/cache.hpp"

#include <utility>

#include "src/obs/metrics.hpp"

namespace bb::minimalist {

namespace {

/// Rebinds a stored controller to the requesting spec's signal names.
/// Everything else in a SynthesizedController is positional (covers,
/// state codes, state-bit names "y<s>"), so only the display names of
/// the machine and its input/output wires change.
SynthesizedController rebind(SynthesizedController ctrl, const bm::Spec& spec) {
  ctrl.name = spec.name;
  ctrl.inputs = spec.input_names();
  ctrl.outputs = spec.output_names();
  for (std::size_t z = 0; z < ctrl.outputs.size(); ++z) {
    ctrl.functions[z].name = ctrl.outputs[z];
  }
  return ctrl;
}

}  // namespace

std::string cache_key(const bm::Spec& spec, SynthMode mode,
                      std::string_view library_version) {
  std::string key;
  if (!library_version.empty()) {
    key += "lib ";
    key += library_version;
    key += '\n';
  }
  key += mode == SynthMode::kSpeed ? "speed\n" : "area\n";
  key += spec.to_canonical();
  return key;
}

std::optional<SynthesizedController> SynthCache::lookup(const bm::Spec& spec,
                                                        SynthMode mode,
                                                        CacheTier* tier) {
  const std::string key = cache_key(spec, mode, library_version());
  BackingStore* backing = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      obs::Registry::global().counter("minimalist.cache.hits").add();
      if (tier != nullptr) *tier = CacheTier::kMemory;
      return rebind(it->second.ctrl, spec);
    }
    backing = backing_;
  }

  // Memory miss: consult the second tier outside the lock so disk reads
  // never serialize the workers.
  if (backing != nullptr) {
    if (auto loaded = backing->load(key)) {
      std::lock_guard<std::mutex> lock(mu_);
      ++disk_hits_;
      insert_locked(key, *loaded);
      obs::Registry::global().counter("minimalist.cache.disk.hits").add();
      if (tier != nullptr) *tier = CacheTier::kDisk;
      return rebind(std::move(*loaded), spec);
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
  }
  obs::Registry::global().counter("minimalist.cache.misses").add();
  if (tier != nullptr) *tier = CacheTier::kMiss;
  return std::nullopt;
}

void SynthCache::store(const bm::Spec& spec, SynthMode mode,
                       const SynthesizedController& ctrl) {
  std::string key = cache_key(spec, mode, library_version());
  BackingStore* backing = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    insert_locked(key, ctrl);
    backing = backing_;
  }
  if (backing != nullptr) backing->store(key, ctrl);
}

void SynthCache::insert_locked(std::string key,
                               const SynthesizedController& ctrl) {
  const auto it = map_.find(key);
  if (it != map_.end()) {
    // First writer wins; just refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return;
  }
  lru_.push_front(key);
  map_.emplace(std::move(key), Entry{ctrl, lru_.begin()});
  while (map_.size() > max_entries_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
    obs::Registry::global().counter("minimalist.cache.evictions").add();
  }
}

void SynthCache::set_library_version(std::string version) {
  std::lock_guard<std::mutex> lock(mu_);
  library_version_ = std::move(version);
}

std::string SynthCache::library_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return library_version_;
}

void SynthCache::set_backing_store(BackingStore* store) {
  std::lock_guard<std::mutex> lock(mu_);
  backing_ = store;
}

void SynthCache::set_max_entries(std::size_t cap) {
  std::lock_guard<std::mutex> lock(mu_);
  max_entries_ = cap == 0 ? 1 : cap;
  while (map_.size() > max_entries_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
    obs::Registry::global().counter("minimalist.cache.evictions").add();
  }
}

SynthCache::Stats SynthCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_,      disk_hits_,  misses_,
               evictions_, map_.size(), max_entries_};
}

void SynthCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  hits_ = 0;
  disk_hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

}  // namespace bb::minimalist
