// Loops over independent entries in fixed-size blocks.
//
// GCC's -O2 vectorizer (the very-cheap cost model) only vectorizes a loop
// whose trip count it knows to be a multiple of the vector width. Running
// the bulk of [0, n) as blocks of kBlockLanes entries, each block a loop
// with a constant trip count, lets it vectorize element-wise work at -O2,
// and at -O3 or under a wider -march alike. Each entry's arithmetic is the
// same scalar IEEE operation sequence in every lane, so the results are
// bitwise those of the plain loop. Only for loops whose iterations are
// independent; never for a reduction.
#pragma once

#include <cstddef>

namespace autodml::gp {

inline constexpr std::size_t kBlockLanes = 8;

/// Calls f(i) for every i in [0, n) in ascending order: blocks of
/// kBlockLanes, then the tail.
template <typename F>
inline void for_each_blocked(std::size_t n, F&& f) {
  const std::size_t bulk = n - n % kBlockLanes;
  for (std::size_t b = 0; b < bulk; b += kBlockLanes) {
    for (std::size_t q = 0; q < kBlockLanes; ++q) f(b + q);
  }
  for (std::size_t i = bulk; i < n; ++i) f(i);
}

}  // namespace autodml::gp
