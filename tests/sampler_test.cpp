#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "config/sampler.h"

namespace autodml::conf {
namespace {

ConfigSpace cube_space(int dims) {
  ConfigSpace space;
  for (int d = 0; d < dims; ++d) {
    space.add(ParamSpec::continuous("x" + std::to_string(d), 0.0, 1.0));
  }
  return space;
}

TEST(LatinHypercube, OneSamplePerStratum) {
  const ConfigSpace space = cube_space(2);
  util::Rng rng(2);
  const std::size_t n = 16;
  const auto batch = latin_hypercube(space, n, rng);
  ASSERT_EQ(batch.size(), n);
  // Project each dimension: every 1/n bin must contain exactly one point.
  for (std::size_t d = 0; d < 2; ++d) {
    std::set<std::size_t> bins;
    for (const auto& c : batch) {
      const auto x = space.encode(c);
      bins.insert(std::min<std::size_t>(
          n - 1, static_cast<std::size_t>(x[d] * static_cast<double>(n))));
    }
    EXPECT_EQ(bins.size(), n) << "dimension " << d;
  }
}

TEST(LatinHypercube, EmptyRequest) {
  const ConfigSpace space = cube_space(2);
  util::Rng rng(3);
  EXPECT_TRUE(latin_hypercube(space, 0, rng).empty());
}

TEST(LatinHypercube, BetterCoverageThanClumping) {
  // The min pairwise distance of an LHS design should rarely be pathological.
  const ConfigSpace space = cube_space(4);
  util::Rng rng(4);
  const auto batch = latin_hypercube(space, 20, rng);
  double min_dist = 1e9;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (std::size_t j = i + 1; j < batch.size(); ++j) {
      const auto a = space.encode(batch[i]);
      const auto b = space.encode(batch[j]);
      double d2 = 0;
      for (std::size_t k = 0; k < a.size(); ++k)
        d2 += (a[k] - b[k]) * (a[k] - b[k]);
      min_dist = std::min(min_dist, std::sqrt(d2));
    }
  }
  EXPECT_GT(min_dist, 0.02);
}

TEST(Halton, PointsInUnitCube) {
  util::Rng rng(5);
  const auto points = halton_points(6, 100, rng);
  ASSERT_EQ(points.size(), 100u);
  for (const auto& p : points) {
    for (double x : p) {
      EXPECT_GE(x, 0.0);
      EXPECT_LT(x, 1.0);
    }
  }
}

TEST(Halton, FirstDimensionIsEquidistributed) {
  util::Rng rng(6);
  const std::size_t n = 256;
  const auto points = halton_points(1, n, rng, /*skip=*/0);
  // Count per quartile; van der Corput base 2 is perfectly balanced.
  std::array<int, 4> quartiles{};
  for (const auto& p : points)
    quartiles[std::min<std::size_t>(3, static_cast<std::size_t>(p[0] * 4))]++;
  for (int q : quartiles) EXPECT_EQ(q, 64);
}

TEST(Halton, DistinctPoints) {
  util::Rng rng(7);
  const auto points = halton_points(3, 200, rng);
  std::set<math::Vec> unique(points.begin(), points.end());
  EXPECT_EQ(unique.size(), points.size());
}

TEST(Halton, DimensionLimitEnforced) {
  util::Rng rng(8);
  EXPECT_THROW(halton_points(37, 10, rng), std::invalid_argument);
}

TEST(Halton, SequenceDecodesToValidConfigs) {
  ConfigSpace space;
  space.add(ParamSpec::categorical("m", {"a", "b", "c"}));
  space.add(ParamSpec::int_choice("k", {1, 2, 4, 8}));
  space.add(ParamSpec::continuous("r", 0.1, 10.0, true));
  util::Rng rng(9);
  const auto configs = halton_sequence(space, 64, rng);
  EXPECT_EQ(configs.size(), 64u);
  std::set<std::string> modes;
  for (const auto& c : configs) {
    space.validate(c);
    modes.insert(c.get_cat("m"));
  }
  EXPECT_EQ(modes.size(), 3u);  // space-filling hits every category
}

TEST(Halton, DeterministicGivenSameRngState) {
  util::Rng rng1(10), rng2(10);
  const auto a = halton_points(4, 32, rng1);
  const auto b = halton_points(4, 32, rng2);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace autodml::conf
