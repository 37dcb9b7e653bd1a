// The persistent project model behind incremental synthesis.
//
// A project directory (BB_PROJECT_DIR, or --project-dir on the tools)
// treats a mini-Balsa program the way a build system treats a source
// tree.  It holds two kinds of state:
//
//   manifest.bbpm             the build graph: one record per unit
//                             (procedure) with the content digest of its
//                             inputs, the name of its artifact file, and
//                             the controllers it depends on
//   artifacts/<unit>-<digest>.bba
//                             the exact output bytes (controller report +
//                             structural Verilog) of the unit's last
//                             successful build, content-named so an edit
//                             can never alias a stale artifact
//
// A unit's input digest covers everything that can change its output:
// the procedure's canonical source (balsa::procedure_digest — formatting
// blind, identifier sensitive), the effective flow options
// (incr::options_fingerprint), and the technology contract
// (techmap::CellLibrary::fingerprint, which folds in kTechmapRevision).
// Re-synthesis diffs digests against the manifest, rebuilds only the
// dirty units, and splices every clean unit's artifact bytes into the
// output — byte-identical to a full rebuild, because the artifacts *are*
// the bytes a full rebuild would produce.
//
// Both files are framed by util::frame, like the disk cache's entries:
// a magic + version line, a checksum line (util::fnv1a64 over the body),
// then the body.  Readers verify the frame and treat ANY defect —
// missing file, bad magic, version bump, checksum mismatch, malformed
// JSON, half-written garbage — as "no manifest": the build degrades to a
// full rebuild and rewrites the project state.  Corruption can cost
// time, never correctness.  Writes go through util::write_file_atomic
// (crash-safe; see DESIGN.md §15) with failpoint sites
// incr.manifest.store / incr.artifact.store for fault injection.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bb::incr {

/// Manifest/artifact format revision; readers reject (and builders
/// regenerate) anything else.  Bump on any framing or field change.
inline constexpr int kManifestVersion = 1;

/// File names inside a project directory.
inline constexpr const char* kManifestFile = "manifest.bbpm";
inline constexpr const char* kArtifactDir = "artifacts";

/// One synthesized controller a unit depends on: its clustered name and
/// the 16-hex digest of its synthesis-cache key (minimalist::cache_key
/// with the library version folded in).  The key digest is empty when
/// the flow configuration has no single cache key per controller (the
/// template baseline).  Diagnostics and the bench report dirty-set sizes
/// in controllers through these records.
struct ControllerRecord {
  std::string name;
  std::string key;
};

/// One unit (procedure) of the project.
struct UnitRecord {
  std::string name;      ///< procedure name (unique within the program)
  std::string digest;    ///< 16-hex digest of the unit's inputs
  std::string artifact;  ///< file name under artifacts/
  std::vector<ControllerRecord> controllers;
};

struct Manifest {
  std::string library;  ///< techmap::CellLibrary::fingerprint() at build
  std::string options;  ///< incr::options_fingerprint() at build
  std::vector<UnitRecord> units;  ///< declaration order of the program

  const UnitRecord* find(std::string_view name) const;
};

/// The exact output bytes of one unit's build.
struct Artifact {
  std::string report;   ///< flow::report(result) text
  std::string verilog;  ///< netlist::to_verilog of the unit's gates
};

// ---- serialization (pure; the disk layer frames these bytes) ----

std::string manifest_to_bytes(const Manifest& manifest);
/// Returns nullopt (and a one-line reason in `error`) on ANY defect.
std::optional<Manifest> manifest_from_bytes(std::string_view bytes,
                                            std::string* error = nullptr);

std::string artifact_to_bytes(const Artifact& artifact);
std::optional<Artifact> artifact_from_bytes(std::string_view bytes,
                                            std::string* error = nullptr);

/// "<unit>-<digest>.bba" with the unit name sanitized to [A-Za-z0-9_-]
/// so a hostile procedure name cannot escape the artifact directory.
std::string artifact_file_name(std::string_view unit, std::string_view digest);

// ---- project-directory I/O ----

std::string manifest_path(const std::string& project_dir);
std::string artifact_path(const std::string& project_dir,
                          std::string_view file_name);

/// Loads and verifies the manifest.  nullopt on any defect (reason in
/// `error`); the caller falls back to a full rebuild.
std::optional<Manifest> load_manifest(const std::string& project_dir,
                                      std::string* error = nullptr);

/// Atomically writes the manifest (creating the project directory).
/// Returns false on I/O failure — including an injected
/// incr.manifest.store failpoint — leaving any previous manifest intact.
bool store_manifest(const std::string& project_dir, const Manifest& manifest,
                    std::string* error = nullptr);

std::optional<Artifact> load_artifact(const std::string& project_dir,
                                      std::string_view file_name,
                                      std::string* error = nullptr);

/// Atomically writes one artifact (failpoint: incr.artifact.store).
bool store_artifact(const std::string& project_dir,
                    std::string_view file_name, const Artifact& artifact,
                    std::string* error = nullptr);

/// Removes artifact files the manifest no longer references (stale
/// digests of edited units, deleted units).  Returns how many were
/// removed.  Best-effort: unlink failures are skipped.
std::size_t gc_artifacts(const std::string& project_dir,
                         const Manifest& keep);

}  // namespace bb::incr
