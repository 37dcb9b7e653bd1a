// Reference implementation of logic::Cube for differential tests: one
// byte per literal and a plain loop per operation, the straightforward
// representation the packed positional-cube class must agree with.
#pragma once

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/logic/cube.hpp"

namespace bb::logic::reference {

class ByteCube {
 public:
  ByteCube() = default;
  explicit ByteCube(std::size_t num_vars) : lits_(num_vars, Lit::kDash) {}

  static ByteCube parse(std::string_view text) {
    ByteCube c(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
      switch (text[i]) {
        case '0': c.set(i, Lit::kZero); break;
        case '1': c.set(i, Lit::kOne); break;
        case '-': c.set(i, Lit::kDash); break;
        default: throw std::invalid_argument("ByteCube::parse");
      }
    }
    return c;
  }

  static ByteCube from_minterm(const std::vector<bool>& bits) {
    ByteCube c(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      c.set(i, bits[i] ? Lit::kOne : Lit::kZero);
    }
    return c;
  }

  /// The same cube through the public API of the class under test.
  static ByteCube of(const Cube& c) {
    ByteCube out(c.size());
    for (std::size_t i = 0; i < c.size(); ++i) out.set(i, c[i]);
    return out;
  }

  std::size_t size() const { return lits_.size(); }
  Lit operator[](std::size_t i) const { return lits_[i]; }
  void set(std::size_t i, Lit v) { lits_[i] = v; }

  std::size_t num_literals() const {
    return static_cast<std::size_t>(
        std::count_if(lits_.begin(), lits_.end(),
                      [](Lit l) { return l != Lit::kDash; }));
  }

  bool contains(const ByteCube& other) const {
    if (size() != other.size()) return false;
    for (std::size_t i = 0; i < size(); ++i) {
      if (lits_[i] != Lit::kDash && lits_[i] != other.lits_[i]) return false;
    }
    return true;
  }

  bool agrees_with_fixed(const ByteCube& other) const {
    const std::size_t n = std::min(size(), other.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (other[i] == Lit::kDash) continue;
      if (lits_[i] != Lit::kDash && lits_[i] != other[i]) return false;
    }
    return true;
  }

  bool contains_minterm(const std::vector<bool>& bits) const {
    if (bits.size() != size()) return false;
    for (std::size_t i = 0; i < size(); ++i) {
      if (lits_[i] == Lit::kDash) continue;
      if ((lits_[i] == Lit::kOne) != bits[i]) return false;
    }
    return true;
  }

  bool intersects(const ByteCube& other) const { return distance(other) == 0; }

  std::optional<ByteCube> intersect(const ByteCube& other) const {
    if (size() != other.size()) return std::nullopt;
    ByteCube out(size());
    for (std::size_t i = 0; i < size(); ++i) {
      const Lit a = lits_[i];
      const Lit b = other.lits_[i];
      if (a == Lit::kDash) {
        out.set(i, b);
      } else if (b == Lit::kDash || a == b) {
        out.set(i, a);
      } else {
        return std::nullopt;
      }
    }
    return out;
  }

  ByteCube supercube(const ByteCube& other) const {
    ByteCube out(size());
    for (std::size_t i = 0; i < size(); ++i) {
      out.set(i, lits_[i] == other.lits_[i] ? lits_[i] : Lit::kDash);
    }
    return out;
  }

  std::size_t distance(const ByteCube& other) const {
    std::size_t d = 0;
    const std::size_t n = std::min(size(), other.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Lit a = lits_[i];
      const Lit b = other.lits_[i];
      if (a != Lit::kDash && b != Lit::kDash && a != b) ++d;
    }
    return d;
  }

  ByteCube raised(std::size_t i) const {
    ByteCube out = *this;
    out.set(i, Lit::kDash);
    return out;
  }

  std::string to_string() const {
    std::string s;
    for (const Lit l : lits_) {
      s.push_back(l == Lit::kZero ? '0' : (l == Lit::kOne ? '1' : '-'));
    }
    return s;
  }

  bool operator==(const ByteCube& other) const = default;

 private:
  std::vector<Lit> lits_;
};

}  // namespace bb::logic::reference
