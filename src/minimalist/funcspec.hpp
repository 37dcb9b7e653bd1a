// Flow-table extraction: turns a Burst-Mode specification into per-output
// and per-state-bit Boolean function specifications with hazard-freedom
// annotations (the front half of the Minimalist substitute).
//
// Implementation model (standard Huffman machine with one-hot state codes
// and sequential "rise-before-fall" state handoff):
//   - variables are the machine's input wires followed by one state bit
//     per specification state;
//   - within an arc  s --I/O--> s'  the machine first absorbs the input
//     burst I (state bits frozen at code{s}), fires the output burst and
//     raises bit s' (dynamic transitions anchored at the burst's end
//     point), then lowers bit s (a second, single-variable feedback step).
//   Each feedback update changes exactly one state bit, so state changes
//   are critical-race-free by construction.
//
// Hazard-freedom annotations follow Nowick/Dill two-level theory:
//   - every static-1 region of a transition is a *required cube* that some
//     single product of the final cover must contain;
//   - every dynamic transition is *privileged*: a product intersecting its
//     transition cube must contain the anchor (the start point for 1->0,
//     the end point for 0->1), which forbids glitching products.
#pragma once

#include <string>
#include <vector>

#include "src/bm/spec.hpp"
#include "src/logic/cover.hpp"
#include "src/logic/cube.hpp"

namespace bb::minimalist {

/// A privileged (dynamic) transition constraint on one function: any
/// product intersecting `transition` must have all its *input* literals
/// compatible with `anchor` (the transition's start inputs for a 1->0
/// change, its end inputs for 0->1).  Otherwise the product could turn on
/// and off again mid-burst (a dynamic hazard).  Anchors constrain only
/// input variables; the product's state literals merely select the state
/// slice it serves.
struct Privilege {
  logic::Cube transition;  ///< the full transition cube (stale-tolerant)
  logic::Cube anchor;      ///< input-variable values products must respect
};

/// Specification of one Boolean function (an output or a state bit).
struct FuncSpec {
  std::string name;
  bool is_state_bit = false;
  /// Cubes where the function must be 1.  `required` cubes must each lie
  /// inside a single product of the final cover.
  std::vector<logic::Cube> on_required;
  std::vector<logic::Cube> on_points;  ///< remaining ON cubes (burst anchors)
  logic::Cover off;                    ///< cubes where the function must be 0
  std::vector<Privilege> privileges;
};

/// The complete machine specification ready for minimization.
struct MachineSpec {
  std::string name;
  std::vector<std::string> inputs;      ///< variable order: inputs first
  std::vector<std::string> state_bits;  ///< then one bit per state
  std::size_t num_vars = 0;
  std::vector<FuncSpec> functions;      ///< outputs then state bits
  /// State-bit assignment: the code of every specification state over
  /// `state_bits` (one-hot today, but consumers must not assume that —
  /// the validator derives bit patterns from here, not from state ids).
  std::vector<std::vector<bool>> state_codes;
  /// Initial values of the state bits (state_codes[initial state]).
  std::vector<bool> initial_state_code;
  /// Initial values of the outputs (all low).
  std::vector<bool> initial_outputs;
};

/// Extracts the machine specification and bumps the
/// `minimalist.extracted` counter.  Throws std::runtime_error when the
/// spec is inconsistent (ON/OFF overlap, non-unique entry valuations).
MachineSpec extract(const bm::Spec& spec);

}  // namespace bb::minimalist
