// Four-phase handshake expansion of CH expressions (paper Sections 3.1-3.3,
// Table 2) and the Burst-Mode-aware legality table (Table 1).
//
// The expansion of an expression is four "higher-level" atomic events; each
// event is a sequence of items: signal transitions plus the control-flow
// keywords label / goto / bgoto / choice that Sections 3.2-3.3 introduce.
// Flattening the four events in order yields the *intermediate form* that
// the CH-to-BMS compiler consumes (Section 3.6).
#pragma once

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/ch/ast.hpp"

namespace bb::ch {

/// One element of an expansion event.
struct Item {
  enum class Kind {
    kTransition,  ///< a signal edge
    kLabel,       ///< loop / join label
    kGoto,        ///< back-edge to a label (rep)
    kBGoto,       ///< forward edge out of the innermost loop (break)
    kChoice,      ///< externally-resolved alternative behaviours
  };

  Kind kind = Kind::kTransition;
  Transition transition;                        ///< kTransition
  std::string label;                            ///< kLabel / kGoto / kBGoto
  std::vector<std::vector<Item>> alternatives;  ///< kChoice

  static Item make(Transition t);
  static Item make_label(std::string name);
  static Item make_goto(std::string name);
  static Item make_bgoto(std::string name);
  static Item make_choice(std::vector<std::vector<Item>> alts);
};

using ItemSeq = std::vector<Item>;

/// The four-phase expansion of a CH expression.
struct Expansion {
  std::array<ItemSeq, 4> events;
  Activity activity = Activity::kNeither;

  /// Concatenation of the four events: the intermediate form.  The
  /// rvalue form moves the items out instead of copying them.
  ItemSeq flatten() const&;
  ItemSeq flatten() &&;
};

/// Raised when an expansion would require an operator/activity combination
/// that is not Burst-Mode aware (a "no" entry of Table 1).
class BmAwareError : public std::runtime_error {
 public:
  explicit BmAwareError(const std::string& what) : std::runtime_error(what) {}
};

/// Table 1: is (op, first-arg activity, second-arg activity) a legal,
/// correct-by-construction Burst-Mode combination?  `kNeither` arguments
/// (void channels inserted by the optimizer) are transparent: the
/// combination is judged as if the void argument adopted the legal side.
bool is_bm_aware(ExprKind op, Activity first, Activity second);

/// Options for the expansion engine.
struct ExpandOptions {
  /// When true, illegal (Table 1 "no") combinations expand with a naive
  /// best-guess interleaving instead of throwing.  Used by the ablation
  /// benchmark to demonstrate that such expansions fail BM validation.
  bool allow_illegal = false;
};

/// Expands a CH expression into its four-phase expansion.
/// Throws BmAwareError for Table 1 "no" combinations (unless allowed).
Expansion expand(const Expr& e, const ExpandOptions& options = {});

/// Renders an expansion in the paper's notation, e.g.
/// "[(i a_r +)] [(o a_a +)] [(i a_r -)] [(o a_a -)]".
std::string to_string(const Expansion& expansion);
std::string to_string(const ItemSeq& items);
std::string to_string(const Item& item);
std::string to_string(const Transition& t);

/// All signal names referenced by an expansion, with their directions.
struct SignalInfo {
  std::string name;
  bool is_input = false;
};
std::vector<SignalInfo> signals_of(const Expansion& expansion);

}  // namespace bb::ch
