#include "config/sampler.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace autodml::conf {

std::vector<Config> latin_hypercube(const ConfigSpace& space, std::size_t n,
                                    util::Rng& rng) {
  if (n == 0) return {};
  const std::size_t dim = space.encoded_dimension();
  // One stratified permutation per coordinate.
  std::vector<std::vector<std::size_t>> perms(dim);
  for (auto& perm : perms) {
    perm.resize(n);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    rng.shuffle(perm);
  }
  std::vector<Config> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    math::Vec x(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      const double jitter = rng.uniform();
      x[d] = (static_cast<double>(perms[d][i]) + jitter) /
             static_cast<double>(n);
    }
    out.push_back(space.decode(x));
  }
  return out;
}

namespace {

constexpr std::size_t kPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19, 23, 29,
                                   31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
                                   73, 79, 83, 89, 97, 101, 103, 107, 109,
                                   113, 127, 131, 137, 139, 149, 151};

/// Radical inverse of `index` in base `base` with a digit permutation.
double scrambled_radical_inverse(std::size_t index, std::size_t base,
                                 std::span<const std::size_t> digit_perm) {
  double result = 0.0;
  double inv_base = 1.0 / static_cast<double>(base);
  double factor = inv_base;
  while (index > 0) {
    const std::size_t digit = digit_perm[index % base];
    result += static_cast<double>(digit) * factor;
    index /= base;
    factor *= inv_base;
  }
  return result;
}

}  // namespace

std::vector<math::Vec> halton_points(std::size_t dim, std::size_t n,
                                     util::Rng& rng, std::size_t skip) {
  constexpr std::size_t kMaxDim = std::size(kPrimes);
  if (dim > kMaxDim)
    throw std::invalid_argument("halton: dimension too large (max 36)");
  // Random digit permutation per dimension, fixing perm[0] = 0 so that the
  // sequence stays equidistributed.
  std::vector<std::vector<std::size_t>> perms(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    const std::size_t base = kPrimes[d];
    std::vector<std::size_t> perm(base - 1);
    std::iota(perm.begin(), perm.end(), std::size_t{1});
    rng.shuffle(perm);
    perms[d].push_back(0);
    perms[d].insert(perms[d].end(), perm.begin(), perm.end());
  }
  std::vector<math::Vec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    math::Vec x(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      x[d] = scrambled_radical_inverse(i + skip + 1, kPrimes[d], perms[d]);
    }
    out.push_back(std::move(x));
  }
  return out;
}

std::vector<Config> halton_sequence(const ConfigSpace& space, std::size_t n,
                                    util::Rng& rng, std::size_t skip) {
  const auto points = halton_points(space.encoded_dimension(), n, rng, skip);
  std::vector<Config> out;
  out.reserve(n);
  for (const auto& x : points) out.push_back(space.decode(x));
  return out;
}

}  // namespace autodml::conf
