// The incremental synthesis driver: a build system for circuits.
//
// build() synthesizes a whole mini-Balsa program (one or more
// procedures) against a persistent project directory (manifest.hpp).
// Each procedure is a unit; a unit whose input digest matches the
// manifest is *reused* — the output bytes its manifest record carries
// are spliced into the output with zero synthesis work — and only the
// dirty units run the flow.  Dirty units still reuse individual
// controllers through the ordinary synthesis-cache tiers
// (minimalist::SynthCache and, in the daemon, serve::DiskCache behind
// it), so an edit that leaves some of a unit's controllers structurally
// unchanged pays only for the changed ones.
//
// The contract is the one every correct build system honors: the
// incremental output is byte-identical to a full rebuild.  It holds
// because (a) the flow itself is deterministic, (b) the manifest stores
// the exact bytes of each unit's last build, and (c) anything that could
// change the bytes — source, effective options, technology library — is
// folded into the unit digest.  A build reads one file and writes one
// file.  When that file is unusable (first build, corruption, version
// bump), everything is dirty: slower, never wrong.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/balsa/ast.hpp"
#include "src/flow/flow.hpp"
#include "src/incr/manifest.hpp"

namespace bb::incr {

/// Environment variable naming the default project directory.
inline constexpr const char* kProjectDirEnv = "BB_PROJECT_DIR";

/// What happened to one unit this build.
struct UnitOutcome {
  std::string name;
  std::string digest;          ///< the unit's input digest
  bool reused = false;         ///< spliced from the manifest, no synthesis
  std::size_t controllers = 0; ///< controllers behind this unit
  double ms = 0.0;             ///< rebuild wall time (0 when reused)
};

struct BuildResult {
  std::vector<UnitOutcome> units;  ///< declaration order
  std::size_t units_rebuilt = 0;
  std::size_t units_reused = 0;
  /// No usable manifest (first build, corruption, version/library/option
  /// change detected at manifest level): every unit was dirty.
  bool full_rebuild = false;
  std::string full_rebuild_reason;  ///< empty when reuse was possible
  /// Controllers actually synthesized (cache misses in rebuilt units)
  /// vs. reused from any tier (cache hits + controllers of spliced
  /// units).
  std::uint64_t controllers_rebuilt = 0;
  std::uint64_t controllers_reused = 0;
  /// Spliced program output: per-unit report blocks / Verilog modules in
  /// declaration order.  Byte-identical to a full rebuild.
  std::string report;
  std::string verilog;
  /// Stage times summed over the rebuilt units, with the incr_* reuse
  /// counters filled in; total_ms is the whole build() wall time.
  flow::StageTimings timings;
  /// False when persisting the manifest failed (the build itself is
  /// still valid; the next build just rebuilds more).  True, with no
  /// write, when the new manifest equals the one on disk.
  bool manifest_stored = true;

  /// Stable machine-readable rendering (bench artifacts, serve replies).
  std::string to_json() const;
};

/// Deterministic fingerprint of every FlowOptions field that can change
/// output bytes (clustering, mode, state cap, the lint switch,
/// strictness, effective work budget).  Fields
/// proven byte-neutral — jobs and cache_instance — are excluded, so
/// turning the cache off or changing the worker count never dirties a
/// project.
std::string options_fingerprint(const flow::FlowOptions& options);

/// One unit's input digest: canonical procedure source + options
/// fingerprint + library fingerprint.
std::string unit_digest(const balsa::Procedure& procedure,
                        const std::string& options_fp,
                        const std::string& library_fp);

/// Builds `source` (a whole program) incrementally against
/// `project_dir`, rewriting its manifest on success.
/// Throws (ParseError / CompileError / FlowError / LintError) exactly
/// like the underlying flow; the manifest is only rewritten after every
/// unit succeeded, so a failed build never poisons the project state.
BuildResult build(std::string_view source, const std::string& project_dir,
                  const flow::FlowOptions& options);

}  // namespace bb::incr
