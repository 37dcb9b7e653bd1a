// The clustering optimizations of Section 4:
//   T1 - Activation Channel Removal (Section 4.1, procedure T1_clustering)
//   T2 - Call Distribution          (Section 4.2, procedure T2_clustering)
//
// Both receive a collection of CH programs (one per control handshake
// component) and return the clustered collection.  A merge is committed
// only when the composed behaviour is still Burst-Mode synthesizable:
// Table 1 legality, a valid compiled BM machine, and (optionally) a state
// budget.  The machine that check compiles travels with the merged
// program, so a clustered controller is compiled exactly once.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/bm/spec.hpp"
#include "src/bm/validate.hpp"
#include "src/ch/ast.hpp"

namespace bb::opt {

/// What an accepted merge check built: the merged body's Burst-Mode
/// machine, compiled unnamed, and its validation.  It is the clustered
/// controller's machine, so the flow does not compile it again.
struct BmCheck {
  bm::Spec spec;
  bm::ValidationResult validation;
};

/// A (possibly clustered) controller.
struct ClusteredProgram {
  ch::Program program;
  /// Display names of the original components merged into this program.
  std::vector<std::string> members;
  /// The check that accepted the last merge into this program; null for
  /// a program that was never merged.  Immutable and shared, so copies
  /// (T2's trial netlists) stay cheap.
  std::shared_ptr<const BmCheck> check;
};

/// The controller's Burst-Mode machine, named after its program: the
/// carried check's machine, or a fresh compile for a program that was
/// never merged.
bm::Spec machine_of(const ClusteredProgram& cp);

struct ClusterOptions {
  /// Reject merges whose BM machine exceeds this many states (0 = no cap).
  int max_states = 0;
};

struct ClusterStats {
  int t1_applied = 0;
  int t1_rejected = 0;
  int calls_split = 0;
  int calls_distributed = 0;
  int calls_restored = 0;
  std::vector<std::string> log;
};

/// Splits a T2 fragment member name "<call>.frag<N>" (what call
/// distribution names the per-client fragments of a call component) into
/// the call's name and the 1-based client index; false for any other
/// member name.
bool parse_fragment_tag(const std::string& tag, std::string& call_name,
                        int& index);

/// Wraps plain CH programs for the clustering pipeline.
std::vector<ClusteredProgram> wrap(std::vector<ch::Program> programs);

/// The merge check: the expression's machine when it compiles to a valid
/// Burst-Mode machine within the state budget and with no adjacency
/// violation (bm::adjacency_violations), else null.
std::shared_ptr<const BmCheck> check_merge(const ch::Expr& expr,
                                           int max_states = 0);

/// Applies Activation Channel Removal to one channel: `x` is the
/// activating program (uses `channel` as an active p-to-p leaf exactly
/// once), `y` the activated one (its top-level matches the activation
/// pattern).  Returns the merged program, or nullopt when the pattern or
/// the Burst-Mode-aware restrictions reject the merge.
std::optional<ch::Program> activation_channel_removal(
    const ch::Program& x, const ch::Program& y, const std::string& channel,
    const ClusterOptions& options = {});

/// Procedure T1_clustering: repeatedly merges across internal
/// point-to-point channels while the result stays synthesizable.
std::vector<ClusteredProgram> t1_clustering(std::vector<ClusteredProgram> n,
                                            const ClusterOptions& options = {},
                                            ClusterStats* stats = nullptr);

/// Procedure T2_clustering: splits call components into per-client
/// fragments, re-runs T1, and restores any call whose fragments did not
/// all land in the same final controller.
std::vector<ClusteredProgram> t2_clustering(std::vector<ClusteredProgram> n,
                                            const ClusterOptions& options = {},
                                            ClusterStats* stats = nullptr);

/// Full optimization pipeline (T1 then call distribution), from plain
/// programs.
std::vector<ClusteredProgram> optimize(std::vector<ch::Program> programs,
                                       const ClusterOptions& options = {},
                                       ClusterStats* stats = nullptr);

}  // namespace bb::opt
