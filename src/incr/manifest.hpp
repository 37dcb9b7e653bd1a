// The persistent project model behind incremental synthesis.
//
// A project directory (BB_PROJECT_DIR, or --project-dir on the tools)
// treats a mini-Balsa program the way a build system treats a source
// tree.  It holds one file:
//
//   manifest.bbpm   the build graph: one record per unit (procedure)
//                   with the content digest of its inputs, the number
//                   of controllers behind it, and the exact output
//                   bytes (controller report + structural Verilog) of
//                   its last successful build
//
// A unit's input digest covers everything that can change its output:
// the procedure's canonical source (balsa::procedure_digest — formatting
// blind, identifier sensitive), the effective flow options
// (incr::options_fingerprint), and the technology contract
// (techmap::CellLibrary::fingerprint, which folds in kTechmapRevision).
// Re-synthesis diffs digests against the manifest, rebuilds only the
// dirty units, and splices every clean unit's stored bytes into the
// output — byte-identical to a full rebuild, because the stored bytes
// *are* the bytes a full rebuild would produce.
//
// The manifest is framed by util::frame, like the disk cache's entries:
// a magic + version line, a checksum line (util::fnv1a64 over the body),
// then the body.  The reader verifies the frame and treats ANY defect —
// missing file, bad magic, version bump, checksum mismatch, malformed
// JSON, half-written garbage — as "no manifest": the build degrades to a
// full rebuild and rewrites the file.  Corruption can cost time, never
// correctness.  The write goes through util::write_file_atomic
// (crash-safe; see DESIGN.md §15) with failpoint site
// incr.manifest.store for fault injection.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bb::incr {

/// Manifest format revision; readers reject (and builders regenerate)
/// anything else.  Bump on any framing or field change.
inline constexpr int kManifestVersion = 2;

/// The one file inside a project directory.
inline constexpr const char* kManifestFile = "manifest.bbpm";

/// One unit (procedure) of the project.
struct UnitRecord {
  std::string name;    ///< procedure name (unique within the program)
  std::string digest;  ///< 16-hex digest of the unit's inputs
  std::size_t controllers = 0;  ///< controllers behind the unit
  std::string report;   ///< flow::report(result) text
  std::string verilog;  ///< netlist::to_verilog of the unit's gates
};

struct Manifest {
  std::string library;  ///< techmap::CellLibrary::fingerprint() at build
  std::string options;  ///< incr::options_fingerprint() at build
  std::vector<UnitRecord> units;  ///< declaration order of the program

  const UnitRecord* find(std::string_view name) const;
};

// ---- serialization (pure; the disk layer writes these bytes) ----

std::string manifest_to_bytes(const Manifest& manifest);
/// Returns nullopt (and a one-line reason in `error`) on ANY defect.
std::optional<Manifest> manifest_from_bytes(std::string_view bytes,
                                            std::string* error = nullptr);

// ---- project-directory I/O ----

std::string manifest_path(const std::string& project_dir);

/// Loads and verifies the manifest.  nullopt on any defect (reason in
/// `error`: "no manifest" when the file does not exist); the caller
/// falls back to a full rebuild.  On success `bytes`, when non-null,
/// receives the file's bytes.
std::optional<Manifest> load_manifest(const std::string& project_dir,
                                      std::string* error = nullptr,
                                      std::string* bytes = nullptr);

/// Atomically writes the manifest (creating the project directory).
/// Returns false on I/O failure — including an injected
/// incr.manifest.store failpoint — leaving any previous manifest intact.
bool store_manifest(const std::string& project_dir, const Manifest& manifest,
                    std::string* error = nullptr);

}  // namespace bb::incr
