// Space-filling samplers.
//
// BO quality depends heavily on the initial design; plain uniform sampling
// clusters in high dimension, so the tuner draws its initial design as a
// Latin hypercube. Its degraded-mode fallback walks a scrambled Halton
// sequence. Both samplers operate in the encoded unit hypercube and decode
// to valid configurations.
#pragma once

#include <vector>

#include "config/config_space.h"

namespace autodml::conf {

/// Latin hypercube: each encoded coordinate is stratified into n bins and
/// the bins are randomly permuted per coordinate.
std::vector<Config> latin_hypercube(const ConfigSpace& space, std::size_t n,
                                    util::Rng& rng);

/// Scrambled Halton sequence (prime bases, random digit permutation per
/// dimension). Deterministic given the rng state at call time.
std::vector<Config> halton_sequence(const ConfigSpace& space, std::size_t n,
                                    util::Rng& rng, std::size_t skip = 20);

/// Raw scrambled Halton points in [0,1)^dim (exposed for tests).
std::vector<math::Vec> halton_points(std::size_t dim, std::size_t n,
                                     util::Rng& rng, std::size_t skip = 20);

}  // namespace autodml::conf
