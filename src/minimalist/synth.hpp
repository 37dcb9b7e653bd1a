// Top level of the Minimalist substitute: Burst-Mode specification in,
// hazard-free two-level controller out, plus a functional validator that
// replays every specification arc against the synthesized logic.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/bm/spec.hpp"
#include "src/minimalist/hfmin.hpp"

namespace bb::minimalist {

/// A synthesized controller: one two-level SOP per output and state bit
/// over the variable order (inputs..., state bits...).
struct SynthesizedController {
  std::string name;
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::vector<std::string> state_bits;
  std::size_t num_vars = 0;
  /// Output functions first (aligned with `outputs`), then state bits.
  std::vector<SolvedFunction> functions;
  /// State-bit code per specification state (the machine's actual state
  /// assignment; one-hot today).  Positional — no signal names inside —
  /// so it survives the synthesis cache's name rebinding unchanged.
  std::vector<std::vector<bool>> state_codes;
  std::vector<bool> initial_state_code;

  /// The state-bit pattern of specification state `s`.  Falls back to a
  /// one-hot code for hand-built controllers that never filled
  /// `state_codes`.
  std::vector<bool> state_code(int s) const;

  std::size_t num_products() const;
  std::size_t num_literals() const;

  /// Renders in a ".sol"-style PLA listing (one plane per function).
  std::string to_sol() const;
};

/// Synthesizes a validated Burst-Mode specification.
/// Throws std::runtime_error on inconsistent or non-implementable specs.
/// When `budget` is given it is polled by the exponential inner steps
/// (DHF candidate expansion, unate covering); util::WorkBudgetExceeded
/// propagates so the flow can degrade the affected controller.  When
/// `machine` is given, a successful synthesis hands back the flow table
/// it extracted, so a caller that also lints the result need not extract
/// it again.
SynthesizedController synthesize(
    const bm::Spec& spec, SynthMode mode = SynthMode::kSpeed,
    util::WorkBudget* budget = nullptr,
    std::optional<MachineSpec>* machine = nullptr);

struct ValidationReport {
  bool ok = true;
  std::vector<std::string> errors;
};

/// Replays every arc of `spec` through the synthesized logic in
/// fundamental mode (inputs of a burst applied one at a time, feedback
/// settled after each), checking output values, monotonicity of output
/// changes, and the reached state code.
ValidationReport validate_against_spec(const SynthesizedController& ctrl,
                                       const bm::Spec& spec);

}  // namespace bb::minimalist
