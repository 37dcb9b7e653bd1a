// The fuzz campaign driver: generate → check → shrink → report.
//
// One campaign draws `count` cases per enabled mode from the seeded
// generator, runs the enabled oracles on each, and delta-debugs every
// discrepancy down to a minimized reproducer.  Everything downstream of
// the clock is deterministic for a given seed: the designs, the
// testbench value streams, the verdicts, and the JSON artifact (which
// carries no wall-clock content), so two same-seed, same-count runs
// are byte-identical.  A time budget truncates the case loop for CI
// use; a truncated artifact says so explicitly instead of silently
// covering fewer cases.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/fuzz/gen.hpp"
#include "src/fuzz/oracle.hpp"

namespace bb::fuzz {

/// Schema of FuzzResult::to_json.
inline constexpr int kFuzzCampaignSchemaVersion = 1;

struct FuzzOptions {
  /// PRNG seed.  0 = auto: the BB_SEED environment variable when set
  /// and positive, otherwise 1.
  std::uint64_t seed = 0;
  /// Cases per enabled mode.
  int count = 100;
  /// Generator size budget (GenOptions::max_commands).
  int size = 12;
  /// Wall-clock budget for the whole campaign; 0 = unlimited.  When it
  /// expires the case loop stops and the result is marked truncated.
  long long time_budget_ms = 0;
  bool balsa_mode = true;
  bool netlist_mode = true;
  bool sim_oracle = true;
  bool conformance_oracle = true;
  /// Clustering state cap, as in FlowOptions::optimized().
  int max_states = 40;
  /// When non-empty, minimized reproducers are written here (the
  /// directory must exist or be creatable).
  std::string repro_dir;
};

/// The seed a given options.seed resolves to (explicit wins, then the
/// BB_SEED environment variable, then 1).
std::uint64_t effective_seed(const FuzzOptions& options);

/// One noteworthy case: every discrepancy and every skipped oracle run
/// (passes and generator rejects are only counted).
struct CaseReport {
  std::string mode;  ///< "balsa" or "netlist"
  int index = 0;
  std::string oracle;   ///< oracle that fired ("sim" / "conformance")
  std::string verdict;  ///< verdict_name rendering
  std::string detail;
  std::string controller;  ///< conformance: offending controller
  /// Minimized design: mini-Balsa source or recipe text.
  std::string design;
  /// Reproducer file written under repro_dir, "" when none.
  std::string repro_path;
  std::vector<std::string> counterexample;
};

struct FuzzResult {
  std::uint64_t seed = 0;
  int cases_run = 0;
  int passed = 0;
  int rejected = 0;  ///< both flow variants rejected the design
  int skipped = 0;   ///< an oracle could not decide (state limit)
  int discrepancies = 0;
  bool truncated = false;  ///< the time budget expired early
  std::vector<CaseReport> reports;

  std::string to_text() const;
  /// Deterministic artifact: same seed + count, same bytes.
  std::string to_json() const;
};

/// Runs the enabled oracles on one design and returns the worst
/// result (discrepancy > skipped > rejected > pass).  This is the
/// per-case kernel of the campaign and the regression-corpus replayer.
/// `cache` is passed to the sim oracle (nullptr = no memo); a campaign
/// owns one for all of its cases and shrink steps.
OracleResult check_design(const hsnet::Netlist& netlist,
                          const FuzzOptions& options,
                          std::uint64_t value_seed,
                          minimalist::SynthCache* cache = nullptr);

FuzzResult run_fuzz_campaign(const FuzzOptions& options);

// ---- reproducer corpus ----

/// One parsed reproducer file from tests/regressions/.
struct Reproducer {
  std::string path;
  std::string mode;    ///< "balsa" or "netlist"
  std::string oracle;  ///< oracle that originally fired
  /// "clean" when the underlying bug is fixed (the design must pass
  /// both oracles now), or "known-bad" for an open, documented bug
  /// (the design must still fail — the ratchet direction).
  std::string expect;
  std::string note;    ///< free text after "known-bad:"
  std::string design;  ///< source / recipe body
};

/// Renders a reproducer in the corpus file format ("--" header lines
/// followed by the design body).
std::string format_reproducer(const Reproducer& repro, std::uint64_t seed,
                              int index, const std::string& detail);

/// Parses a corpus file.  Throws std::runtime_error on malformed input.
Reproducer parse_reproducer(const std::string& path,
                            const std::string& content);

}  // namespace bb::fuzz
