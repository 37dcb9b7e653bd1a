// Cubes over a fixed set of binary variables, in positional notation.
//
// A cube is a product term: each variable is either required 0, required 1,
// or unconstrained (DASH).  Cubes are the currency of the two-level logic
// engine used by the Burst-Mode synthesizer (Minimalist substitute).
//
// Storage is positional-cube notation packed into 64-bit words: two bits
// per variable (01 = 0, 10 = 1, 11 = DASH), 32 variables per word, variable
// i in bits 2(i mod 32) and 2(i mod 32)+1 of word i / 32.  The empty field
// 00 never occurs.  Fields past size() in the last word are always DASH,
// so the defaulted operator== compares values and every predicate works a
// word at a time without masking.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bb::logic {

/// Per-variable literal value inside a cube.
enum class Lit : std::uint8_t {
  kZero = 0,  ///< variable must be 0 (complemented literal)
  kOne = 1,   ///< variable must be 1 (positive literal)
  kDash = 2,  ///< variable unconstrained
};

/// A product term over `size()` binary variables.
class Cube {
 public:
  Cube() = default;

  /// Full cube (all DASH) over `num_vars` variables.
  explicit Cube(std::size_t num_vars)
      : size_(num_vars), words_(num_words(num_vars), ~std::uint64_t{0}) {}

  /// Parses "10-1" style strings ('0', '1', '-').  Throws on bad input.
  static Cube parse(std::string_view text);

  /// Cube matching exactly one minterm, given as a bit vector.
  static Cube from_minterm(const std::vector<bool>& bits);

  std::size_t size() const { return size_; }
  Lit operator[](std::size_t i) const {
    return static_cast<Lit>(
        ((words_[i / kVarsPerWord] >> shift(i)) & kField) - 1);
  }
  void set(std::size_t i, Lit v) {
    std::uint64_t& w = words_[i / kVarsPerWord];
    w = (w & ~(kField << shift(i))) |
        ((static_cast<std::uint64_t>(v) + 1) << shift(i));
  }

  /// Number of non-DASH literals.
  std::size_t num_literals() const;

  /// True if this cube's set of minterms contains `other`'s.
  bool contains(const Cube& other) const;

  /// True if, for every variable `other` fixes, this cube is either free
  /// or fixes the same value (no literal of this cube conflicts with
  /// `other`'s constraints).  The same predicate as intersects().
  bool agrees_with_fixed(const Cube& other) const { return intersects(other); }

  /// True if the minterm (bit vector) lies inside this cube.
  bool contains_minterm(const std::vector<bool>& bits) const;

  /// True if the two cubes share at least one minterm (over the variables
  /// both have).
  bool intersects(const Cube& other) const {
    const std::size_t n = std::min(words_.size(), other.words_.size());
    for (std::size_t w = 0; w < n; ++w) {
      if (empty_fields(words_[w] & other.words_[w]) != 0) return false;
    }
    return true;
  }

  /// The intersection cube, or nullopt if the cubes are disjoint.
  std::optional<Cube> intersect(const Cube& other) const;

  /// Smallest cube containing both (bitwise supercube).  Throws
  /// std::invalid_argument when the sizes differ.
  Cube supercube(const Cube& other) const;

  /// Number of variables where one cube requires 0 and the other requires 1.
  std::size_t distance(const Cube& other) const;

  /// Calls `fn(v)` for every variable v, in increasing order, on which this
  /// cube and `other` require opposite values.
  template <typename Fn>
  void for_each_conflict(const Cube& other, Fn&& fn) const {
    const std::size_t n = std::min(words_.size(), other.words_.size());
    for (std::size_t w = 0; w < n; ++w) {
      for (std::uint64_t m = empty_fields(words_[w] & other.words_[w]);
           m != 0; m &= m - 1) {
        fn(w * kVarsPerWord +
           static_cast<std::size_t>(std::countr_zero(m)) / 2);
      }
    }
  }

  /// Raises literal `i` to DASH, returning the enlarged cube.
  Cube raised(std::size_t i) const;

  /// Renders as a '0'/'1'/'-' string.
  std::string to_string() const;

  /// Hash of the packed words, consistent with operator==.
  std::size_t hash() const;

  bool operator==(const Cube& other) const = default;

 private:
  static constexpr std::size_t kVarsPerWord = 32;
  static constexpr std::uint64_t kField = 3;
  /// The low bit of every 2-bit field.
  static constexpr std::uint64_t kLowBits = 0x5555555555555555ULL;

  static std::size_t num_words(std::size_t num_vars) {
    return (num_vars + kVarsPerWord - 1) / kVarsPerWord;
  }
  static unsigned shift(std::size_t i) {
    return static_cast<unsigned>(2 * (i % kVarsPerWord));
  }
  /// The low bit of every 00 field of `w`.
  static std::uint64_t empty_fields(std::uint64_t w) {
    return ~(w | (w >> 1)) & kLowBits;
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace bb::logic

template <>
struct std::hash<bb::logic::Cube> {
  std::size_t operator()(const bb::logic::Cube& c) const { return c.hash(); }
};
