#include "src/logic/cube.hpp"

#include <stdexcept>

namespace bb::logic {

Cube Cube::parse(std::string_view text) {
  Cube c(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    switch (text[i]) {
      case '0': c.set(i, Lit::kZero); break;
      case '1': c.set(i, Lit::kOne); break;
      case '-': break;
      default:
        throw std::invalid_argument("Cube::parse: bad character in '" +
                                    std::string(text) + "'");
    }
  }
  return c;
}

Cube Cube::from_minterm(const std::vector<bool>& bits) {
  Cube c(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    c.set(i, bits[i] ? Lit::kOne : Lit::kZero);
  }
  return c;
}

std::size_t Cube::num_literals() const {
  std::size_t n = 0;
  for (const std::uint64_t w : words_) {
    // A field is DASH iff both its bits are set; tail fields are DASH.
    n += static_cast<std::size_t>(std::popcount(~(w & (w >> 1)) & kLowBits));
  }
  return n;
}

bool Cube::contains(const Cube& other) const {
  if (size() != other.size()) return false;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if ((other.words_[w] & ~words_[w]) != 0) return false;
  }
  return true;
}

bool Cube::contains_minterm(const std::vector<bool>& bits) const {
  if (bits.size() != size()) return false;
  for (std::size_t i = 0; i < size(); ++i) {
    const Lit l = (*this)[i];
    if (l != Lit::kDash && (l == Lit::kOne) != bits[i]) return false;
  }
  return true;
}

std::optional<Cube> Cube::intersect(const Cube& other) const {
  if (size() != other.size()) return std::nullopt;
  Cube out = *this;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    out.words_[w] &= other.words_[w];
    // An empty field means conflicting required values.
    if (empty_fields(out.words_[w]) != 0) return std::nullopt;
  }
  return out;
}

Cube Cube::supercube(const Cube& other) const {
  if (size() != other.size()) {
    throw std::invalid_argument("Cube::supercube: sizes differ");
  }
  Cube out = *this;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    out.words_[w] |= other.words_[w];
  }
  return out;
}

std::size_t Cube::distance(const Cube& other) const {
  std::size_t d = 0;
  const std::size_t n = std::min(words_.size(), other.words_.size());
  for (std::size_t w = 0; w < n; ++w) {
    d += static_cast<std::size_t>(
        std::popcount(empty_fields(words_[w] & other.words_[w])));
  }
  return d;
}

Cube Cube::raised(std::size_t i) const {
  Cube out = *this;
  out.set(i, Lit::kDash);
  return out;
}

std::string Cube::to_string() const {
  std::string s;
  s.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    const Lit l = (*this)[i];
    s.push_back(l == Lit::kZero ? '0' : (l == Lit::kOne ? '1' : '-'));
  }
  return s;
}

std::size_t Cube::hash() const {
  // The words alone do not give the size (the DASH tail is only known up
  // to a word boundary), so the size seeds the hash.
  std::uint64_t h = 0xcbf29ce484222325ULL ^ size_;
  for (const std::uint64_t w : words_) {
    h = (h ^ w) * 0x100000001b3ULL;
    h ^= h >> 32;
  }
  return static_cast<std::size_t>(h);
}

}  // namespace bb::logic
