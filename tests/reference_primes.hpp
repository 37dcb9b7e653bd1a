// Reference prime-implicant generation for tests: iterated consensus
// with absorption (Quine's method).  The hazard-free minimizer never
// needs all primes, so this lives here as an oracle for the cover and
// cube operations it is built from.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "src/logic/cover.hpp"
#include "src/logic/cube.hpp"

namespace bb::logic::reference {

/// The consensus of two cubes (exists iff their distance is exactly 1).
inline std::optional<Cube> consensus(const Cube& a, const Cube& b) {
  if (a.size() != b.size()) return std::nullopt;
  std::size_t clash = a.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Lit la = a[i];
    const Lit lb = b[i];
    if (la != Lit::kDash && lb != Lit::kDash && la != lb) {
      if (clash != a.size()) return std::nullopt;  // distance > 1
      clash = i;
    }
  }
  if (clash == a.size()) return std::nullopt;  // distance 0: no consensus
  Cube out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i == clash) {
      out.set(i, Lit::kDash);
    } else if (a[i] != Lit::kDash) {
      out.set(i, a[i]);
    } else {
      out.set(i, b[i]);
    }
  }
  return out;
}

/// All prime implicants of the function whose ON-set is covered by `on`
/// and whose don't-care set is covered by `dc`.
inline std::vector<Cube> all_primes(const Cover& on, const Cover& dc) {
  std::vector<Cube> cubes = on.cubes();
  cubes.insert(cubes.end(), dc.cubes().begin(), dc.cubes().end());

  bool changed = true;
  while (changed) {
    changed = false;
    // Absorption: drop cubes contained in another cube.
    std::vector<Cube> kept;
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      bool absorbed = false;
      for (std::size_t j = 0; j < cubes.size() && !absorbed; ++j) {
        if (i == j) continue;
        if (cubes[j].contains(cubes[i])) {
          absorbed = !(cubes[i] == cubes[j]) || j < i;
        }
      }
      if (!absorbed) kept.push_back(cubes[i]);
    }
    cubes = std::move(kept);

    const std::size_t n = cubes.size();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const auto c = consensus(cubes[i], cubes[j]);
        if (!c) continue;
        bool already = false;
        for (const Cube& existing : cubes) {
          if (existing.contains(*c)) {
            already = true;
            break;
          }
        }
        if (!already) {
          cubes.push_back(*c);
          changed = true;
        }
      }
    }
  }
  return cubes;
}

}  // namespace bb::logic::reference
