// The Balsa system back-end of Fig. 1: control/datapath partitioning,
// Balsa-to-CH translation, clustering optimization, CH-to-BMS, Burst-Mode
// synthesis, and technology mapping into one merged control netlist.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <cstdint>

#include "src/hsnet/netlist.hpp"
#include "src/lint/lint.hpp"
#include "src/minimalist/cache.hpp"
#include "src/minimalist/synth.hpp"
#include "src/netlist/gates.hpp"
#include "src/opt/cluster.hpp"
#include "src/techmap/map.hpp"
#include "src/techmap/templates.hpp"

namespace bb::flow {

struct FlowOptions {
  /// Run the paper's clustering optimizations (T1 + T2).  Off selects
  /// the Balsa library baseline: the hand-optimized gate template for
  /// every standard component that has one, the others synthesized per
  /// `mode`.
  bool cluster = true;
  /// Minimalist mode: speed scripts for the optimized flow, area mode for
  /// the per-component baseline templates.
  minimalist::SynthMode mode = minimalist::SynthMode::kSpeed;
  /// Map the two logic levels separately (Section 5), or whole-cone.
  bool level_separated = true;
  /// Reject clustered controllers above this many BM states (0 = no cap).
  int max_states = 40;
  /// Run the static-analysis passes (src/lint) over every intermediate
  /// representation.  Error-severity findings abort the flow with a
  /// LintError; warnings are collected in ControlResult::lint_report.
  /// The deep semantic passes and per-rule settings belong to
  /// analyze_control (flow/analyze.hpp).
  bool lint = true;
  /// Worker threads for the per-controller synthesis loop.  0 = auto
  /// (the BB_JOBS environment variable when set, otherwise the hardware
  /// concurrency); 1 forces the serial path.  Parallel output is merged
  /// in controller-index order and is byte-identical to the serial flow.
  int jobs = 0;
  /// Memoize Burst-Mode synthesis through this caller-owned cache (keyed
  /// on bm::Spec::to_canonical() + mode, so structurally identical
  /// controllers from different instances share one entry).  nullptr =
  /// no memo: the library never caches on its own, so a flow's result
  /// and cost never depend on what the process synthesized earlier.  The
  /// cache is exact — cached and uncached flows produce identical results.
  minimalist::SynthCache* cache_instance = nullptr;
  /// Fail-fast behaviour (the default): any controller failure aborts
  /// synthesize_control with the original exception.  When false, a
  /// controller that exceeds max_states, blows its work budget, or
  /// throws during compile/synthesis/mapping is *degraded*: it falls
  /// back to the unclustered per-component baseline (hand templates
  /// where available, area-mode synthesis otherwise) and the failure is
  /// recorded in ControlResult::failures; all other controllers'
  /// output is byte-identical to a fully healthy run.
  bool strict = true;
  /// Per-controller synthesis work budget, in abstract operations
  /// charged by the exponential steps (unate-covering branch nodes, DHF
  /// candidate expansions, state-minimization passes).  0 = auto (the
  /// BB_WORK_BUDGET environment variable when set, unlimited
  /// otherwise); < 0 forces unlimited; > 0 is an explicit cap.  A cache
  /// hit costs no budgeted work.
  long long work_budget = 0;

  /// The paper's optimized back-end configuration.
  static FlowOptions optimized();
  /// The unoptimized Balsa baseline: hand templates where the library
  /// has them, the remaining per-component controllers compiled as
  /// compact, area-efficient implementations.
  static FlowOptions unoptimized();
};

/// Wall-clock observability of one synthesize_control call.  Per-stage
/// times are summed across controllers (CPU-style totals); the wall time
/// of the parallel region is reported separately so speedup is visible.
struct StageTimings {
  // Stage *_ms fields are CPU-style sums; *_wall_ms and total_ms are wall time.
  double to_ch_ms = 0.0;      ///< Balsa-to-CH translation (+ templates)
  double cluster_ms = 0.0;    ///< T1/T2 clustering
  double bm_compile_ms = 0.0; ///< CH-to-BMS, summed across controllers
  double minimalist_ms = 0.0; ///< two-level synthesis (or cache lookup);
                              ///< a cache miss includes its admission lint
  double techmap_ms = 0.0;    ///< technology mapping
  double lint_ms = 0.0;       ///< all lint stages, including handshake/gates
  double controllers_wall_ms = 0.0;  ///< wall time of the parallel region
  double total_ms = 0.0;             ///< whole synthesize_control call
  int jobs = 1;                      ///< worker threads actually used
  std::uint64_t cache_hits = 0;      ///< this call's hits (not global)
  std::uint64_t cache_misses = 0;
  /// Hits served by the persistent second tier (serve::DiskCache) rather
  /// than the in-memory map; a subset of cache_hits.
  std::uint64_t cache_disk_hits = 0;
  /// Incremental-build reuse (filled by incr::build when this timings
  /// block describes a whole incremental build; always zero for a plain
  /// synthesize_control call).  Units are procedures; "reused" units
  /// were spliced from the project manifest without any synthesis.
  std::uint64_t incr_units_reused = 0;
  std::uint64_t incr_units_rebuilt = 0;
  std::uint64_t incr_controllers_reused = 0;
  std::uint64_t incr_controllers_rebuilt = 0;

  struct Controller {
    std::string name;
    double bm_compile_ms = 0.0;
    double minimalist_ms = 0.0;
    double techmap_ms = 0.0;
    double lint_ms = 0.0;
    bool cache_hit = false;
    bool cache_disk = false;  ///< the hit came from the disk tier
  };
  std::vector<Controller> controllers;

  /// Human-readable block, one line per stage then per controller.
  std::string to_text() const;
  /// Stable machine-readable rendering, embedded in the serve replies
  /// and incremental build results.
  std::string to_json() const;
};

struct ControllerInfo {
  std::string name;
  std::vector<std::string> members;  ///< original components clustered in
  int states = 0;
  std::size_t products = 0;
  std::size_t literals = 0;
  double area = 0.0;
};

/// Where in the flow a structured failure (FlowError) was raised.
enum class FlowStage {
  kTranslate,  ///< Balsa-to-CH translation
  kCluster,    ///< T1/T2 clustering
  kBmCompile,  ///< CH-to-BMS compilation / BM validation / state cap
  kLint,       ///< a static-analysis stage
  kSynthesis,  ///< Minimalist two-level synthesis (incl. work budget)
  kTechmap,    ///< technology mapping
  kVerify,     ///< trace verification
};

/// "translate" / "cluster" / "bm-compile" / "lint" / "synthesis" /
/// "techmap" / "verify".
std::string_view flow_stage_name(FlowStage stage);

/// A structured flow failure: the stage it happened in plus a
/// lint-style diagnostic (rule ids FL001..FL005, registered in
/// lint::all_rules), so callers can tell a BM-validation failure from a
/// budget blow-out from a fallback failure without parsing what().
class FlowError : public std::runtime_error {
 public:
  FlowError(FlowStage stage, std::string rule, std::string object,
            std::string message);
  FlowStage stage() const { return stage_; }
  const lint::Diagnostic& diagnostic() const { return diag_; }

 private:
  FlowStage stage_;
  lint::Diagnostic diag_;
};

/// One controller the non-strict flow degraded instead of aborting on.
struct ControllerFailure {
  std::string controller;            ///< clustered controller name
  FlowStage stage = FlowStage::kSynthesis;  ///< where it failed
  std::string rule;                  ///< diagnostic rule id (FL00x)
  std::string reason;                ///< original failure text
  std::string fallback;              ///< what replaced it
  std::vector<std::string> members;  ///< components re-implemented
};

struct ControlResult {
  netlist::GateNetlist gates{"control"};
  std::vector<minimalist::SynthesizedController> controllers;
  std::vector<std::string> prefixes;  ///< gate-net prefix per controller
  std::vector<ControllerInfo> info;
  opt::ClusterStats cluster_stats;
  /// Findings from every lint stage that ran, plus one FL005 warning per
  /// degraded controller (empty when options.lint is off and no
  /// controller degraded).  Error-severity findings abort
  /// synthesize_control instead of landing here.
  lint::Report lint_report;
  /// Controllers the non-strict flow degraded (empty in strict mode and
  /// on fully healthy runs).  Each entry names the failing stage, the
  /// reason, and the fallback that replaced the controller.
  std::vector<ControllerFailure> failures;
  /// Per-stage wall times of the call that produced this result.
  StageTimings timings;
  double area = 0.0;
};

/// Thrown when a lint stage reports Error-severity findings.  `report`
/// holds the findings of the failing stage; what() is its text rendering.
class LintError : public std::runtime_error {
 public:
  LintError(std::string stage, lint::Report findings);
  const std::string& stage() const { return stage_; }
  const lint::Report& report() const { return report_; }

 private:
  std::string stage_;
  lint::Report report_;
};

/// Synthesizes the control partition of a handshake netlist.
ControlResult synthesize_control(const hsnet::Netlist& netlist,
                                 const FlowOptions& options);

/// minimalist::synthesize() through `cache`, and the cache's one
/// admission point: on a miss, the controller is linted (MN001-MN003,
/// default options) against the flow table synthesis just extracted,
/// and it is stored only if the lint finds nothing.  Every MN rule is
/// an error, so a hit is a controller the lint already passed; it
/// skips both the extraction and the lint.  `findings` (when non-null)
/// receives the miss's MN report and is cleared on a hit.  `tier` and
/// `budget` as in SynthCache::lookup and minimalist::synthesize: a hit
/// costs no budgeted work.
minimalist::SynthesizedController synthesize_cached(
    const bm::Spec& spec, minimalist::SynthMode mode,
    minimalist::SynthCache& cache, util::WorkBudget* budget = nullptr,
    minimalist::CacheTier* tier = nullptr, lint::Report* findings = nullptr);

/// One-line-per-controller report.  The default rendering is a pure
/// function of the synthesis result (no wall-clock numbers), so serial,
/// parallel, cached and uncached flows produce byte-identical text;
/// `with_timings` appends the StageTimings block for human inspection.
std::string report(const ControlResult& result, bool with_timings = false);

/// The worker count a given options.jobs value resolves to.
int effective_jobs(const FlowOptions& options);

/// The per-controller work budget a given options.work_budget value
/// resolves to (0 = unlimited): explicit caps win, otherwise the
/// BB_WORK_BUDGET environment variable is consulted.
std::uint64_t effective_work_budget(const FlowOptions& options);

}  // namespace bb::flow
