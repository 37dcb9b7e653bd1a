// SplitMix64: the deterministic PRNG behind the fault-injection campaign.
//
// The standard library generators are implementation-defined across
// platforms; fault plans must be byte-identical for one seed everywhere
// (the bb-faultsim JSON is diffed across CI runs), so we pin the exact
// algorithm here.  SplitMix64 is Steele/Lea/Flood's 64-bit mixer: tiny,
// full-period, and well distributed for this use.
#pragma once

#include <cstdint>

namespace bb::util {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n), exactly (Lemire's multiply-with-rejection): the
  /// fuzzer draws from ranges large enough that `next() % n` bias would
  /// matter, and rejection sampling costs one 128-bit multiply on the
  /// common path.  n == 0 returns 0 (the old `% 0` was UB).
  std::uint64_t below(std::uint64_t n) {
    if (n == 0) return 0;
    unsigned __int128 m =
        static_cast<unsigned __int128>(next()) * static_cast<unsigned __int128>(n);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      // threshold = 2^64 mod n, computed without 128-bit division.
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        m = static_cast<unsigned __int128>(next()) *
            static_cast<unsigned __int128>(n);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

}  // namespace bb::util
