// Tests for the incremental BO inner loop: rank-1 Cholesky append, GP
// append-vs-refit equivalence and analytic LML gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "gp/gp.h"
#include "gp/kernel.h"
#include "math/cholesky.h"
#include "math/optimize.h"
#include "util/rng.h"

namespace autodml {
namespace {

math::Matrix random_spd(std::size_t n, util::Rng& rng) {
  math::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = rng.normal();
  math::Matrix a = m.matmul(m.transposed());
  a.add_to_diagonal(static_cast<double>(n));
  return a;
}

math::Matrix leading_block(const math::Matrix& a, std::size_t n) {
  math::Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) out(i, j) = a(i, j);
  return out;
}

// ---- rank-1 Cholesky append ----------------------------------------------

TEST(CholeskyAppend, MatchesFullRefactorization) {
  util::Rng rng(21);
  for (std::size_t n : {1u, 2u, 5u, 16u, 40u}) {
    const math::Matrix a_ext = random_spd(n + 1, rng);
    const auto full = math::cholesky(a_ext);
    ASSERT_TRUE(full.has_value()) << "n=" << n;

    auto base = math::cholesky(leading_block(a_ext, n));
    ASSERT_TRUE(base.has_value());
    math::Vec b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = a_ext(i, n);
    ASSERT_TRUE(base->append_row(b, a_ext(n, n)));

    // Same recurrence in the same order as the from-scratch factorization,
    // so the factors agree bit for bit.
    ASSERT_EQ(base->lower.rows(), n + 1);
    for (std::size_t i = 0; i <= n; ++i)
      for (std::size_t j = 0; j <= i; ++j)
        EXPECT_DOUBLE_EQ(base->lower(i, j), full->lower(i, j))
            << "n=" << n << " (" << i << "," << j << ")";
  }
}

TEST(CholeskyAppend, SequentialAppendsStayConsistent) {
  // Grow 4 -> 12 one row at a time; L L^T must track the full matrix.
  util::Rng rng(22);
  const std::size_t target = 12;
  const math::Matrix a = random_spd(target, rng);
  auto factor = math::cholesky(leading_block(a, 4));
  ASSERT_TRUE(factor.has_value());
  for (std::size_t n = 4; n < target; ++n) {
    math::Vec b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = a(i, n);
    ASSERT_TRUE(factor->append_row(b, a(n, n)));
  }
  const math::Matrix rebuilt =
      factor->lower.matmul(factor->lower.transposed());
  EXPECT_LT(math::Matrix::max_abs_diff(rebuilt, a), 1e-9);
}

TEST(CholeskyAppend, CarriesJitterIntoNewDiagonal) {
  // A factor obtained with jitter must append rows against the *jittered*
  // matrix, or later solves would mix two different systems. Build such a
  // factor explicitly: factorize A + jitter*I and stamp the jitter, exactly
  // the state cholesky_with_jitter leaves behind.
  util::Rng rng(23);
  const std::size_t n = 6;
  const double jitter = 1e-4;
  const math::Matrix a_ext = random_spd(n, rng);
  math::Matrix base_jittered = leading_block(a_ext, n - 1);
  base_jittered.add_to_diagonal(jitter);
  auto plain = math::cholesky(base_jittered);
  ASSERT_TRUE(plain.has_value());
  math::CholeskyFactor factor{plain->lower, jitter};
  math::Vec b(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) b[i] = a_ext(i, n - 1);
  ASSERT_TRUE(factor.append_row(b, a_ext(n - 1, n - 1)));
  math::Matrix jittered = a_ext;
  jittered.add_to_diagonal(jitter);
  const math::Matrix rebuilt =
      factor.lower.matmul(factor.lower.transposed());
  EXPECT_LT(math::Matrix::max_abs_diff(rebuilt, jittered), 1e-9);
}

TEST(CholeskyAppend, RejectsNonPositiveDefiniteExtension) {
  util::Rng rng(24);
  const std::size_t n = 5;
  const math::Matrix a = random_spd(n, rng);
  auto factor = math::cholesky(a);
  ASSERT_TRUE(factor.has_value());
  const math::Matrix before = factor->lower;
  // New column equal to A's first column with diagonal A(0,0): the extended
  // matrix duplicates row 0, so the Schur pivot is <= 0.
  math::Vec b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = a(i, 0);
  EXPECT_FALSE(factor->append_row(b, a(0, 0) - 1.0));
  // Factor unchanged on failure.
  EXPECT_EQ(math::Matrix::max_abs_diff(before, factor->lower), 0.0);
}

TEST(CholeskyAppend, LowerInverseMatchesUnitSolves) {
  util::Rng rng(25);
  const std::size_t n = 9;
  const math::Matrix a = random_spd(n, rng);
  const auto factor = math::cholesky(a);
  ASSERT_TRUE(factor.has_value());
  const math::Matrix inv = factor->lower_inverse();
  for (std::size_t j = 0; j < n; ++j) {
    math::Vec e(n, 0.0);
    e[j] = 1.0;
    const math::Vec col = factor->solve_lower(e);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(inv(i, j), col[i], 1e-12);
  }
}

// ---- GP incremental update -----------------------------------------------

struct GpData {
  math::Matrix x;
  math::Vec y;
};

GpData smooth_data(std::size_t n, std::size_t dim, std::uint64_t seed) {
  util::Rng rng(seed);
  GpData d{math::Matrix(n, dim), math::Vec(n)};
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
      d.x(i, k) = rng.uniform();
      v += std::sin(3.0 * (static_cast<double>(k) + 1.0) * d.x(i, k));
    }
    d.y[i] = v + 0.05 * rng.normal();
  }
  return d;
}

TEST(GpAppend, PosteriorMatchesRefitOnExtendedData) {
  const std::size_t n = 20, dim = 3;
  const GpData d = smooth_data(n + 1, dim, 31);
  gp::GpOptions options;
  options.optimize_hyperparams = false;

  gp::GaussianProcess incremental(std::make_unique<gp::Matern52Ard>(dim),
                                  options);
  math::Matrix head(n, dim);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < dim; ++k) head(i, k) = d.x(i, k);
  incremental.refit(head, std::span(d.y).subspan(0, n));
  ASSERT_TRUE(incremental.append_observation(d.x.row(n), d.y[n]));

  gp::GaussianProcess full(std::make_unique<gp::Matern52Ard>(dim), options);
  full.refit(d.x, d.y);

  EXPECT_EQ(incremental.num_points(), n + 1);
  EXPECT_NEAR(incremental.log_marginal_likelihood(),
              full.log_marginal_likelihood(), 1e-9);
  util::Rng rng(32);
  for (int t = 0; t < 10; ++t) {
    math::Vec probe(dim);
    for (auto& v : probe) v = rng.uniform();
    const gp::GpPrediction a = incremental.predict(probe);
    const gp::GpPrediction b = full.predict(probe);
    EXPECT_NEAR(a.mean, b.mean, 1e-9);
    EXPECT_NEAR(a.variance, b.variance, 1e-9);
  }
}

TEST(GpAppend, RepeatedAppendsTrackFullRefit) {
  const std::size_t start = 8, extra = 6, dim = 2;
  const GpData d = smooth_data(start + extra, dim, 33);
  gp::GpOptions options;
  options.optimize_hyperparams = false;
  gp::GaussianProcess incremental(
      std::make_unique<gp::SquaredExponentialArd>(dim), options);
  math::Matrix head(start, dim);
  for (std::size_t i = 0; i < start; ++i)
    for (std::size_t k = 0; k < dim; ++k) head(i, k) = d.x(i, k);
  incremental.refit(head, std::span(d.y).subspan(0, start));
  for (std::size_t i = start; i < start + extra; ++i)
    ASSERT_TRUE(incremental.append_observation(d.x.row(i), d.y[i]));

  gp::GaussianProcess full(std::make_unique<gp::SquaredExponentialArd>(dim),
                           options);
  full.refit(d.x, d.y);
  EXPECT_NEAR(incremental.log_marginal_likelihood(),
              full.log_marginal_likelihood(), 1e-9);
  EXPECT_NEAR(incremental.predict(math::Vec{0.4, 0.6}).mean,
              full.predict(math::Vec{0.4, 0.6}).mean, 1e-9);
}

TEST(GpAppend, RejectsMisuse) {
  gp::GaussianProcess gp(std::make_unique<gp::Matern52Ard>(2));
  EXPECT_THROW(gp.append_observation(math::Vec{0.5, 0.5}, 1.0),
               std::logic_error);  // not fitted yet
  const GpData d = smooth_data(5, 2, 34);
  gp::GpOptions options;
  options.optimize_hyperparams = false;
  gp::GaussianProcess fitted(std::make_unique<gp::Matern52Ard>(2), options);
  fitted.refit(d.x, d.y);
  EXPECT_THROW(fitted.append_observation(math::Vec{0.5}, 1.0),
               std::invalid_argument);  // wrong dim
  EXPECT_THROW(
      fitted.append_observation(math::Vec{0.5, 0.5},
                                std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
}

// ---- negative LML: analytic vs numerical gradient ------------------------

template <typename K>
class LmlGradientTest : public ::testing::Test {};

using LmlKernels = ::testing::Types<gp::SquaredExponentialArd,
                                    gp::Matern52Ard>;
TYPED_TEST_SUITE(LmlGradientTest, LmlKernels);

TYPED_TEST(LmlGradientTest, AnalyticMatchesNumericalAcrossNoiseLevels) {
  const std::size_t n = 12, dim = 2;
  const GpData d = smooth_data(n, dim, 35);
  gp::GpOptions options;
  options.optimize_hyperparams = false;
  gp::GaussianProcess gp(std::make_unique<TypeParam>(dim), options);
  gp.refit(d.x, d.y);

  for (const double noise : {1e-4, 1e-2, 0.3}) {
    // Packed layout: [kernel log-hypers..., log noise]. Perturb the kernel
    // hypers away from the defaults so no gradient component is trivially 0.
    math::Vec packed = gp.kernel().hyperparams();
    for (std::size_t i = 0; i < packed.size(); ++i)
      packed[i] += 0.1 * static_cast<double>(i + 1);
    packed.push_back(std::log(noise));

    const gp::GaussianProcess::LmlResult result = gp.negative_lml(packed);
    const auto value_only = [&](std::span<const double> t) {
      return gp.negative_lml(t).value;
    };
    const math::Vec numeric = math::numerical_gradient(value_only, packed);
    ASSERT_EQ(result.grad.size(), packed.size());
    for (std::size_t i = 0; i < packed.size(); ++i) {
      const double scale = std::max(1.0, std::abs(result.grad[i]));
      EXPECT_NEAR(result.grad[i], numeric[i], 1e-4 * scale)
          << "noise=" << noise << " component " << i;
    }
  }
}

TEST(LmlGradient, MemoInvalidatedWhenDataChanges) {
  const GpData d = smooth_data(10, 2, 36);
  gp::GpOptions options;
  options.optimize_hyperparams = false;
  gp::GaussianProcess gp(std::make_unique<gp::Matern52Ard>(2), options);
  math::Matrix head(9, 2);
  for (std::size_t i = 0; i < 9; ++i)
    for (std::size_t k = 0; k < 2; ++k) head(i, k) = d.x(i, k);
  gp.refit(head, std::span(d.y).subspan(0, 9));

  math::Vec packed = gp.kernel().hyperparams();
  packed.push_back(std::log(1e-2));
  const double v1 = gp.negative_lml(packed).value;
  EXPECT_DOUBLE_EQ(gp.negative_lml(packed).value, v1);  // memo hit
  gp.append_observation(d.x.row(9), d.y[9]);
  // Same theta, different data: the memo must not serve the stale value.
  EXPECT_NE(gp.negative_lml(packed).value, v1);
}

}  // namespace
}  // namespace autodml
