#include "src/serve/disk_cache.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/codec.hpp"
#include "src/util/failpoint.hpp"
#include "src/util/hash.hpp"
#include "src/util/io.hpp"
#include "src/util/strings.hpp"

namespace bb::serve {

namespace fs = std::filesystem;

namespace {

/// Generation stamp and eviction-intent journal, both living in the
/// store root next to the entries.
constexpr const char* kGenerationFile = "generation";
constexpr const char* kJournalFile = "evict.journal";
constexpr const char* kQuarantineDir = "quarantine";
constexpr const char* kJournalHeader = "bbdj 1";

/// Orphaned write temporaries younger than this are left alone: they
/// may belong to a live writer in another process sharing the
/// directory.  A writer holds its temp for milliseconds, so anything
/// past the window is the residue of a crash.
constexpr std::chrono::seconds kTmpGraceWindow{10};

obs::Counter& counter(const char* name) {
  return obs::Registry::global().counter(name);
}

bool is_entry_file(const fs::path& p) { return p.extension() == ".bbc"; }

std::string file_name(const std::string& path) {
  return fs::path(path).filename().string();
}

bool is_orphan_tmp(const std::string& filename) {
  return filename.find(".tmp.") != std::string::npos;
}

}  // namespace

std::optional<DiskCache::ParsedEntry> DiskCache::parse_entry(
    std::string_view data) {
  // util::frame("bbdc", version, "<access>\n<keylen>\n<key>\n<payload>").
  // The checksum covers the access counter, the key and the payload
  // exactly as stored, so any torn or bit-flipped byte is caught here.
  const auto body = util::unframe("bbdc", kDiskEntryVersion, data);
  if (!body) return std::nullopt;
  std::string_view rest = *body;
  const auto take_line = [&rest]() -> std::optional<std::string_view> {
    const std::size_t nl = rest.find('\n');
    if (nl == std::string_view::npos) return std::nullopt;
    std::string_view line = rest.substr(0, nl);
    rest = rest.substr(nl + 1);
    return line;
  };

  const auto access_line = take_line();
  const auto keylen_line = take_line();
  if (!access_line || !keylen_line) return std::nullopt;
  const auto access = util::parse_ll(*access_line);
  const auto keylen = util::parse_ll(*keylen_line);
  if (!access || *access < 0 || !keylen || *keylen < 0 ||
      static_cast<std::size_t>(*keylen) + 1 > rest.size()) {
    return std::nullopt;
  }
  ParsedEntry entry;
  entry.access = static_cast<std::uint64_t>(*access);
  entry.key = rest.substr(0, static_cast<std::size_t>(*keylen));
  if (rest[static_cast<std::size_t>(*keylen)] != '\n') return std::nullopt;
  entry.payload = rest.substr(static_cast<std::size_t>(*keylen) + 1);
  return entry;
}

std::string DiskCache::render_entry(const std::string& key,
                                    std::string_view payload,
                                    std::uint64_t access) {
  const std::string body = std::to_string(access) + "\n" +
                           std::to_string(key.size()) + "\n" + key + "\n" +
                           std::string(payload);
  return util::frame("bbdc", kDiskEntryVersion, body);
}

DiskCache::DiskCache(std::string root, std::uint64_t max_bytes)
    : root_(std::move(root)), max_bytes_(max_bytes) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec || !fs::is_directory(root_)) {
    throw std::runtime_error("DiskCache: cannot create cache directory '" +
                             root_ + "'" + (ec ? ": " + ec.message() : ""));
  }
  recover();
}

std::string DiskCache::entry_path(const std::string& key) const {
  // Two independent FNV-1a streams give a 128-bit address; the embedded
  // key is still verified on load, so even a collision only costs a miss.
  return root_ + "/" + util::hex64(util::fnv1a64(key)) +
         util::hex64(util::fnv1a64(key, 0x9e3779b97f4a7c15ull)) + ".bbc";
}

void DiskCache::recover() {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;

  // 1. Bump the generation stamp, so every repair artifact from this
  // open (quarantine files) names the pass that produced it.  A store
  // on a read-only filesystem keeps working with the in-memory stamp.
  const std::string gen_path = root_ + "/" + kGenerationFile;
  if (const auto gen = util::read_file(gen_path)) {
    generation_ =
        static_cast<std::uint64_t>(util::parse_ll(util::trim(*gen)).value_or(0));
  }
  ++generation_;
  try {
    util::write_file_atomic(gen_path, std::to_string(generation_) + "\n");
  } catch (const std::exception&) {
    // Recovery must not fail the open; the stamp is advisory.
  }

  const auto quarantine = [&](const fs::path& path) {
    const fs::path qdir = fs::path(root_) / kQuarantineDir;
    std::error_code qec;
    fs::create_directories(qdir, qec);
    const fs::path target =
        qdir / ("g" + std::to_string(generation_) + "." +
                path.filename().string());
    fs::rename(path, target, qec);
    if (qec) fs::remove(path, qec);  // quarantine dir unwritable: drop
    ++stats_.quarantined;
    counter("serve.disk_cache.quarantined").add();
  };

  // 2. Complete (or safely abandon) an interrupted eviction.  The
  // journal records each victim with the access counter the eviction
  // decision saw; a file whose counter moved on was touched after the
  // decision and must survive — that is the "never drop a live entry"
  // invariant.  The journal file itself is written atomically, so it is
  // either absent, or complete and trustworthy.
  const std::string journal_path = root_ + "/" + kJournalFile;
  if (const auto journal = util::read_file(journal_path)) {
    std::istringstream lines(*journal);
    std::string line;
    bool header_ok = std::getline(lines, line) && line == kJournalHeader;
    while (header_ok && std::getline(lines, line)) {
      const std::size_t space = line.find(' ');
      if (space == std::string::npos) continue;
      const auto access = util::parse_ll(line.substr(0, space));
      const std::string filename = line.substr(space + 1);
      if (!access || filename.empty() ||
          filename.find('/') != std::string::npos) {
        continue;
      }
      const fs::path victim = fs::path(root_) / filename;
      const auto data = util::read_file(victim.string());
      if (!data) continue;  // already unlinked before the crash
      const auto entry = parse_entry(*data);
      if (!entry) {
        quarantine(victim);
        continue;
      }
      if (entry->access <= static_cast<std::uint64_t>(*access)) {
        if (fs::remove(victim, ec)) {
          ++stats_.journal_applied;
          ++stats_.evictions;
          counter("serve.disk_cache.journal_applied").add();
          counter("serve.disk_cache.evictions").add();
        }
      }
    }
    fs::remove(journal_path, ec);
  }

  // 3. Scavenge crash residue and validate every surviving entry.  The
  // access-counter clock resumes past the highest persisted value, so
  // recency ordering survives the restart.
  const auto now = fs::file_time_type::clock::now();
  std::vector<fs::path> to_quarantine;
  for (const auto& it : fs::directory_iterator(root_, ec)) {
    if (!it.is_regular_file(ec)) continue;
    const fs::path& path = it.path();
    const std::string filename = path.filename().string();
    if (filename == kGenerationFile || filename == kJournalFile) continue;
    if (is_orphan_tmp(filename)) {
      const auto mtime = fs::last_write_time(path, ec);
      if (!ec && now - mtime > kTmpGraceWindow) {
        std::error_code rm_ec;
        if (fs::remove(path, rm_ec)) {
          ++stats_.recovered_tmp;
          counter("serve.disk_cache.recovered_tmp").add();
        }
      }
      continue;
    }
    if (!is_entry_file(path)) continue;
    const auto data = util::read_file(path.string());
    if (!data) continue;
    const auto entry = parse_entry(*data);
    if (!entry || entry_path(std::string(entry->key)) != path.string()) {
      // Version, checksum, or key-embedding disagrees with the file
      // name: quarantine rather than trust or silently delete it.
      to_quarantine.push_back(path);
      continue;
    }
    access_counter_ = std::max(access_counter_, entry->access);
  }
  for (const fs::path& path : to_quarantine) quarantine(path);
}

std::uint64_t DiskCache::recency_locked(const std::string& filename,
                                        std::uint64_t persisted) const {
  const auto it = touched_.find(filename);
  return it == touched_.end() ? persisted : std::max(persisted, it->second);
}

std::optional<minimalist::SynthesizedController> DiskCache::load(
    const std::string& key) {
  obs::Span span("serve.disk_cache.load", obs::kCatFlow);
  const auto miss = [this]() {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    counter("serve.disk_cache.misses").add();
  };
  if (util::failpoint("serve.disk_cache.load")) {
    miss();
    return std::nullopt;
  }
  const std::string path = entry_path(key);
  const auto data = util::read_file(path);
  if (!data) {
    miss();
    return std::nullopt;
  }
  span.arg("bytes", static_cast<std::uint64_t>(data->size()));

  const auto reject = [&]() -> std::optional<
                              minimalist::SynthesizedController> {
    drop_corrupt(path);
    return std::nullopt;
  };
  const auto entry = parse_entry(*data);
  if (!entry || entry->key != key) return reject();

  auto ctrl = deserialize_controller(entry->payload);
  if (!ctrl) return reject();

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hits;
    counter("serve.disk_cache.hits").add();
    // Bump recency for the LRU evictor in memory only: a hit reads and
    // never writes.  The evictor ranks an entry by the larger of this
    // clock and its persisted one.
    touched_[file_name(path)] = ++access_counter_;
  }
  return ctrl;
}

void DiskCache::store(const std::string& key,
                      const minimalist::SynthesizedController& ctrl) {
  obs::Span span("serve.disk_cache.store", obs::kCatFlow);
  std::uint64_t access = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    access = ++access_counter_;
  }
  const std::string image =
      render_entry(key, serialize_controller(ctrl), access);
  span.arg("bytes", static_cast<std::uint64_t>(image.size()));
  bool injected = static_cast<bool>(util::failpoint("serve.disk_cache.store"));
  if (!injected) {
    try {
      util::write_file_atomic(entry_path(key), image);
    } catch (const std::exception&) {
      injected = true;  // a full or read-only disk degrades the cache,
                        // never the synthesis
    }
  }
  if (injected) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.store_errors;
    counter("serve.disk_cache.store_errors").add();
    return;
  }
  // Crash site between the entry landing on disk and the cache-tier
  // bookkeeping that follows — the classic "crash between cache-tier
  // updates" window the recovery pass must make harmless.
  (void)util::failpoint("serve.disk_cache.store.crash");
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.stores;
  counter("serve.disk_cache.stores").add();
  evict_to_cap();
}

void DiskCache::drop_corrupt(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  std::lock_guard<std::mutex> lock(mu_);
  touched_.erase(file_name(path));
  ++stats_.corrupt_dropped;
  ++stats_.misses;
  counter("serve.disk_cache.corrupt_dropped").add();
  counter("serve.disk_cache.misses").add();
}

void DiskCache::evict_to_cap() {
  struct EntryFile {
    fs::path path;
    std::string name;  ///< the file name, the key of touched_
    std::uint64_t access = 0;
    std::uint64_t size = 0;
  };
  // Sizes come from the directory listing; an entry's bytes are read
  // (for its access clock) only when the directory is over the cap.
  std::error_code ec;
  std::vector<EntryFile> files;
  std::uint64_t total = 0;
  for (const auto& it : fs::directory_iterator(root_, ec)) {
    if (!it.is_regular_file(ec)) continue;
    if (!is_entry_file(it.path())) continue;
    std::error_code size_ec;
    const std::uint64_t size = it.file_size(size_ec);
    if (size_ec) continue;
    files.push_back(
        EntryFile{it.path(), it.path().filename().string(), 0, size});
    total += size;
  }
  if (total <= max_bytes_) return;
  std::vector<EntryFile> readable;
  for (EntryFile& f : files) {
    // Re-size from the bytes read: an entry re-stored since the listing
    // counts as it is now, and one that vanished counts not at all.
    total -= f.size;
    const auto data = util::read_file(f.path.string());
    if (!data) continue;
    f.size = data->size();
    total += f.size;
    const auto entry = parse_entry(*data);
    // An unparseable entry sorts first (access 0): it is dead weight
    // the size cap should reclaim before any live entry.
    f.access = entry ? recency_locked(f.name, entry->access) : 0;
    readable.push_back(std::move(f));
  }
  files = std::move(readable);
  if (total <= max_bytes_) return;
  std::sort(files.begin(), files.end(),
            [](const EntryFile& a, const EntryFile& b) {
              return a.access < b.access;  // least recently used first
            });

  // Publish the eviction intent before unlinking anything: recovery can
  // then complete (or veto, entry by entry) an interrupted pass.
  std::vector<EntryFile> victims;
  std::uint64_t reclaimed = 0;
  for (const EntryFile& f : files) {
    if (total - reclaimed <= max_bytes_) break;
    victims.push_back(f);
    reclaimed += f.size;
  }
  if (victims.empty()) return;
  std::string journal = std::string(kJournalHeader) + "\n";
  for (const EntryFile& f : victims) {
    journal += std::to_string(f.access) + " " + f.name + "\n";
  }
  const std::string journal_path = root_ + "/" + kJournalFile;
  try {
    util::write_file_atomic(journal_path, journal);
  } catch (const std::exception&) {
    return;  // cannot journal ⇒ do not evict; the cap is advisory
  }
  // Crash site in the window the journal exists for: intent published,
  // victims not yet (all) unlinked.
  (void)util::failpoint("serve.disk_cache.evict.crash");
  for (const EntryFile& f : victims) {
    // Re-check the victim's clock right before the unlink: another
    // process sharing the directory may have re-stored it since the
    // scan, and a re-stored entry is live, not evictable.
    const auto data = util::read_file(f.path.string());
    if (!data) continue;
    const auto entry = parse_entry(*data);
    if (entry && recency_locked(f.name, entry->access) > f.access) continue;
    std::error_code remove_ec;
    if (fs::remove(f.path, remove_ec)) {
      touched_.erase(f.name);
      ++stats_.evictions;
      counter("serve.disk_cache.evictions").add();
    }
  }
  fs::remove(journal_path, ec);
}

DiskCacheStats DiskCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t DiskCache::entry_count() const {
  std::error_code ec;
  std::size_t n = 0;
  for (const auto& it : fs::directory_iterator(root_, ec)) {
    if (it.is_regular_file(ec) && is_entry_file(it.path())) ++n;
  }
  return n;
}

DiskCache::VerifyReport DiskCache::verify_all() const {
  VerifyReport report;
  std::error_code ec;
  for (const auto& it : fs::directory_iterator(root_, ec)) {
    if (!it.is_regular_file(ec) || !is_entry_file(it.path())) continue;
    ++report.entries;
    const auto data = util::read_file(it.path().string());
    const auto entry = data ? parse_entry(*data) : std::nullopt;
    const bool valid =
        entry && entry_path(std::string(entry->key)) == it.path().string() &&
        deserialize_controller(entry->payload).has_value();
    if (valid) {
      ++report.ok;
    } else {
      ++report.bad;
      if (report.first_bad.empty()) report.first_bad = it.path().string();
    }
  }
  return report;
}

}  // namespace bb::serve
