#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "math/cholesky.h"
#include "math/matrix.h"
#include "math/optimize.h"
#include "util/rng.h"

namespace autodml::math {
namespace {

// ---- vector helpers -----------------------------------------------------------

TEST(VecOps, DotAndNorm) {
  const Vec a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_THROW(dot(a, Vec{1}), std::invalid_argument);
}

TEST(VecOps, AxpyAndArithmetic) {
  Vec y{1, 1};
  axpy(2.0, Vec{3, 4}, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 9.0);
}

// ---- Matrix ---------------------------------------------------------------------

TEST(Matrix, TransposeInvolution) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 2) = 5;
  m(1, 1) = 7;
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(t.transposed(), m), 0.0);
}

TEST(Matrix, MatmulKnownProduct) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  b(0, 0) = 5;
  b(0, 1) = 6;
  b(1, 0) = 7;
  b(1, 1) = 8;
  const Matrix c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a.matmul(b), std::invalid_argument);
}

// ---- Cholesky -------------------------------------------------------------------

Matrix random_spd(std::size_t n, util::Rng& rng, double diag_boost = 0.5) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  Matrix spd = a.matmul(a.transposed());
  spd.add_to_diagonal(diag_boost * static_cast<double>(n));
  return spd;
}

TEST(Cholesky, ReconstructsMatrix) {
  util::Rng rng(5);
  const Matrix a = random_spd(8, rng);
  const auto f = cholesky(a);
  ASSERT_TRUE(f.has_value());
  const Matrix rebuilt = f->lower.matmul(f->lower.transposed());
  EXPECT_LT(Matrix::max_abs_diff(rebuilt, a), 1e-9);
}

TEST(Cholesky, SolveMatchesDirect) {
  util::Rng rng(6);
  const Matrix a = random_spd(6, rng);
  Vec b(6);
  for (auto& x : b) x = rng.normal();
  const auto f = cholesky(a);
  ASSERT_TRUE(f.has_value());
  const Vec x = f->solve(b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(dot(a.row(i), x), b[i], 1e-8);
}

TEST(Cholesky, LogDetMatchesKnown) {
  Matrix d(3, 3);
  d(0, 0) = 2.0;
  d(1, 1) = 3.0;
  d(2, 2) = 4.0;
  const auto f = cholesky(d);
  ASSERT_TRUE(f.has_value());
  EXPECT_NEAR(f->log_det(), std::log(24.0), 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(0, 1) = 2.0;
  m(1, 0) = 2.0;
  m(1, 1) = 1.0;  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky(m).has_value());
}

TEST(Cholesky, JitterRescuesSingular) {
  // Rank-deficient PSD matrix (outer product).
  Matrix m(3, 3);
  const Vec v{1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) m(i, j) = v[i] * v[j];
  const CholeskyFactor f = cholesky_with_jitter(m);
  EXPECT_GT(f.jitter, 0.0);
  const Matrix rebuilt = f.lower.matmul(f.lower.transposed());
  EXPECT_LT(Matrix::max_abs_diff(rebuilt, m), 1e-3);
}

TEST(Cholesky, JitterGivesUpOnNegativeDefinite) {
  Matrix m(2, 2);
  m(0, 0) = -10.0;
  m(1, 1) = -10.0;
  EXPECT_THROW(cholesky_with_jitter(m, 1e-10, 3), std::runtime_error);
}

TEST(Cholesky, JitterFailureNamesOffendingPivot) {
  Matrix m(3, 3);
  m(0, 0) = 1.0;
  m(1, 1) = -50.0;  // pivot 1 is the culprit
  m(2, 2) = 1.0;
  try {
    cholesky_with_jitter(m, 1e-10, 3);
    FAIL() << "expected cholesky_with_jitter to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pivot 1"), std::string::npos) << what;
  }
}

// ---- Blocked Cholesky ---------------------------------------------------------

// The scalar and blocked paths compute the same factor up to floating-point
// summation order. For a well-conditioned SPD matrix with O(n)-scale entries
// the reordering error is ~ n * eps * ||A|| ≈ 200 * 2.2e-16 * O(10²) ≈ 1e-11;
// the 1e-9 bound leaves two orders of slack without ever admitting an
// algorithmic divergence (those show up at O(1)).
TEST(CholeskyBlocked, MatchesScalarWithinReorderingTolerance) {
  util::Rng rng(11);
  for (const std::size_t n : {130u, 200u, 257u}) {  // none divide the block
    const Matrix a = random_spd(n, rng);
    const auto scalar = cholesky_scalar(a);
    const auto blocked = cholesky_blocked(a);
    ASSERT_TRUE(scalar.has_value()) << n;
    ASSERT_TRUE(blocked.has_value()) << n;
    EXPECT_LT(Matrix::max_abs_diff(scalar->lower, blocked->lower), 1e-9) << n;
    const Matrix rebuilt = blocked->lower.matmul(blocked->lower.transposed());
    EXPECT_LT(Matrix::max_abs_diff(rebuilt, a), 1e-7) << n;
  }
}

TEST(CholeskyBlocked, SmallBlockSizesExerciseEveryPanelShape) {
  util::Rng rng(12);
  const Matrix a = random_spd(23, rng);
  const auto scalar = cholesky_scalar(a);
  ASSERT_TRUE(scalar.has_value());
  for (const std::size_t block : {1u, 2u, 3u, 7u, 23u, 64u}) {
    const auto blocked = cholesky_blocked(a, block);
    ASSERT_TRUE(blocked.has_value()) << "block=" << block;
    EXPECT_LT(Matrix::max_abs_diff(scalar->lower, blocked->lower), 1e-10)
        << "block=" << block;
  }
}

TEST(CholeskyBlocked, DispatchUsesBlockedPathPastThreshold) {
  // cholesky() must produce bit-identical factors to the path it dispatches
  // to on either side of the threshold — the dispatch is a pure selector.
  util::Rng rng(13);
  const Matrix small = random_spd(kCholeskyBlockedThreshold - 1, rng);
  const Matrix large = random_spd(kCholeskyBlockedThreshold, rng);
  const auto via_dispatch_small = cholesky(small);
  const auto via_scalar = cholesky_scalar(small);
  ASSERT_TRUE(via_dispatch_small.has_value() && via_scalar.has_value());
  EXPECT_EQ(Matrix::max_abs_diff(via_dispatch_small->lower,
                                 via_scalar->lower),
            0.0);
  const auto via_dispatch_large = cholesky(large);
  const auto via_blocked = cholesky_blocked(large);
  ASSERT_TRUE(via_dispatch_large.has_value() && via_blocked.has_value());
  EXPECT_EQ(Matrix::max_abs_diff(via_dispatch_large->lower,
                                 via_blocked->lower),
            0.0);
}

TEST(CholeskyBlocked, RejectsIndefiniteLargeMatrix) {
  // Indefinite matrix big enough to route through the blocked path, with
  // the negative direction buried in the trailing submatrix so the panel
  // recurrence (not input validation) must catch it.
  util::Rng rng(14);
  Matrix m = random_spd(160, rng);
  m(150, 150) = -1e4;
  EXPECT_FALSE(cholesky(m).has_value());
  EXPECT_FALSE(cholesky_blocked(m).has_value());
}

TEST(CholeskyBlocked, JitterRescuesNearSingularLargeMatrix) {
  // Rank-deficient Gram matrix (n points in a 3-dim feature space) above
  // the blocked threshold: plain factorization fails, the jitter ladder in
  // cholesky_with_jitter succeeds through the blocked path, and the factor
  // reconstructs the jittered matrix.
  const std::size_t n = 140;
  util::Rng rng(15);
  Matrix feats(n, 3);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < 3; ++j) feats(i, j) = rng.normal();
  const Matrix gram = feats.matmul(feats.transposed());  // rank 3
  EXPECT_FALSE(cholesky(gram).has_value());
  const CholeskyFactor f = cholesky_with_jitter(gram);
  EXPECT_GT(f.jitter, 0.0);
  Matrix target = gram;
  target.add_to_diagonal(f.jitter);
  const Matrix rebuilt = f.lower.matmul(f.lower.transposed());
  EXPECT_LT(Matrix::max_abs_diff(rebuilt, target), 1e-6);
}

TEST(CholeskyBlocked, AppendRowStaysWithinReorderingToleranceOfBlocked) {
  // append_row replays the scalar recurrence, so against a blocked base
  // factor the appended row differs only by the same summation-order bound
  // the blocked-vs-scalar tests pin (see append_row's contract).
  util::Rng rng(16);
  const std::size_t n = 150;
  const Matrix full = random_spd(n, rng);
  Matrix head(n - 1, n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i)
    for (std::size_t j = 0; j + 1 < n; ++j) head(i, j) = full(i, j);
  auto factor = cholesky_blocked(head);
  ASSERT_TRUE(factor.has_value());
  Vec b(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) b[i] = full(i, n - 1);
  ASSERT_TRUE(factor->append_row(b, full(n - 1, n - 1)));
  const auto direct = cholesky_scalar(full);
  ASSERT_TRUE(direct.has_value());
  EXPECT_LT(Matrix::max_abs_diff(factor->lower, direct->lower), 1e-9);
}

// ---- AUTODML_CHECKED invariants (active in scripts/check.sh's ASan leg) ----

TEST(CheckedMode, MatrixIndexOutOfBoundsThrows) {
#if AUTODML_CHECKED_ENABLED
  Matrix m(2, 3);
  EXPECT_THROW(m(2, 0), std::logic_error);
  EXPECT_THROW(m(0, 3), std::logic_error);
  EXPECT_THROW(m.row(2), std::logic_error);
  EXPECT_NO_THROW(m(1, 2));
#else
  GTEST_SKIP() << "build with -DAUTODML_CHECKED=ON to enable";
#endif
}

TEST(CheckedMode, CheckFiniteNamesOffendingEntry) {
#if AUTODML_CHECKED_ENABLED
  Matrix m(2, 2);
  m(1, 0) = std::numeric_limits<double>::quiet_NaN();
  try {
    check_finite(m, "test matrix");
    FAIL() << "expected check_finite to throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("(1,0)"), std::string::npos) << what;
    EXPECT_NE(what.find("test matrix"), std::string::npos) << what;
  }
  const Vec v = {0.0, std::numeric_limits<double>::infinity()};
  EXPECT_THROW(check_finite(v, "test vec"), std::logic_error);
#else
  Matrix m(2, 2);
  m(1, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NO_THROW(check_finite(m, "test matrix"));  // compiled out
#endif
}

TEST(CheckedMode, CholeskyRejectsNonFiniteInputWithLocation) {
#if AUTODML_CHECKED_ENABLED
  Matrix m(3, 3);
  m.add_to_diagonal(1.0);
  m(2, 1) = std::numeric_limits<double>::quiet_NaN();
  try {
    cholesky(m);
    FAIL() << "expected cholesky to throw on non-finite input";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("(2,1)"), std::string::npos)
        << e.what();
  }
#else
  GTEST_SKIP() << "build with -DAUTODML_CHECKED=ON to enable";
#endif
}

TEST(Cholesky, SolveLowerUpperConsistency) {
  util::Rng rng(9);
  const Matrix a = random_spd(5, rng);
  const auto f = cholesky(a);
  ASSERT_TRUE(f.has_value());
  Vec b(5);
  for (auto& x : b) x = rng.normal();
  const Vec y = f->solve_lower(b);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_NEAR(dot(f->lower.row(i), y), b[i], 1e-10);
}

// ---- Nelder-Mead -------------------------------------------------------------------

TEST(NelderMead, MinimizesQuadratic) {
  const auto f = [](std::span<const double> x) {
    return (x[0] - 3.0) * (x[0] - 3.0) + 2.0 * (x[1] + 1.0) * (x[1] + 1.0);
  };
  const OptResult r = nelder_mead(f, Vec{0.0, 0.0});
  EXPECT_NEAR(r.x[0], 3.0, 1e-4);
  EXPECT_NEAR(r.x[1], -1.0, 1e-4);
  EXPECT_LT(r.value, 1e-7);
}

TEST(NelderMead, MinimizesRosenbrock) {
  const auto rosen = [](std::span<const double> x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  NelderMeadOptions opts;
  opts.max_iterations = 5000;
  const OptResult r = nelder_mead(rosen, Vec{-1.2, 1.0}, opts);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(NelderMead, EmptyStartThrows) {
  EXPECT_THROW(nelder_mead([](std::span<const double>) { return 0.0; }, Vec{}),
               std::invalid_argument);
}

TEST(NelderMead, RespectsIterationBudget) {
  int calls = 0;
  const auto f = [&](std::span<const double> x) {
    ++calls;
    return x[0] * x[0];
  };
  NelderMeadOptions opts;
  opts.max_iterations = 5;
  nelder_mead(f, Vec{10.0}, opts);
  EXPECT_LT(calls, 40);  // a handful per iteration at most
}

// ---- Adam -------------------------------------------------------------------------

TEST(Adam, MinimizesQuadraticWithGradient) {
  const auto f = [](std::span<const double> x, std::span<double> g) {
    g[0] = 2.0 * (x[0] - 4.0);
    g[1] = 2.0 * (x[1] + 2.0);
    return (x[0] - 4.0) * (x[0] - 4.0) + (x[1] + 2.0) * (x[1] + 2.0);
  };
  AdamOptions opts;
  opts.max_iterations = 2000;
  opts.learning_rate = 0.1;
  const OptResult r = adam(f, Vec{0.0, 0.0}, opts);
  EXPECT_NEAR(r.x[0], 4.0, 1e-2);
  EXPECT_NEAR(r.x[1], -2.0, 1e-2);
}

TEST(Adam, KeepsBestSeenPoint) {
  // Pathological gradient that diverges after a good start; best-seen must
  // be retained even if later iterates get worse.
  int calls = 0;
  const auto f = [&](std::span<const double> x, std::span<double> g) {
    ++calls;
    g[0] = calls < 3 ? 2.0 * x[0] : -100.0;  // then runs away
    return calls < 3 ? x[0] * x[0] : 1e6;
  };
  AdamOptions opts;
  opts.max_iterations = 20;
  const OptResult r = adam(f, Vec{1.0}, opts);
  EXPECT_LE(r.value, 1.0);
}

TEST(Adam, StopsOnSmallGradient) {
  const auto f = [](std::span<const double> x, std::span<double> g) {
    g[0] = 0.0;
    return x[0];
  };
  const OptResult r = adam(f, Vec{5.0});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

TEST(Adam, ProjectsIterateOntoBounds) {
  // Unconstrained minimum at x=4, box [0,2]: the projected iterate must
  // converge to the boundary. Without projection the raw iterate would run
  // past 2 and keep collecting the stale boundary gradient while the
  // returned point stays clamped — the bug this option exists to fix.
  int out_of_bounds_evals = 0;
  const auto f = [&](std::span<const double> x, std::span<double> g) {
    if (x[0] < 0.0 || x[0] > 2.0) ++out_of_bounds_evals;
    g[0] = 2.0 * (x[0] - 4.0);
    return (x[0] - 4.0) * (x[0] - 4.0);
  };
  AdamOptions opts;
  opts.max_iterations = 500;
  opts.learning_rate = 0.1;
  opts.lower_bounds = Vec{0.0};
  opts.upper_bounds = Vec{2.0};
  const OptResult r = adam(f, Vec{1.0}, opts);
  EXPECT_NEAR(r.x[0], 2.0, 1e-3);
  EXPECT_EQ(out_of_bounds_evals, 0);  // f only ever sees feasible points
}

TEST(Adam, ProjectsStartPointAndValidatesBoundSizes) {
  const auto f = [](std::span<const double> x, std::span<double> g) {
    g[0] = 2.0 * x[0];
    return x[0] * x[0];
  };
  AdamOptions opts;
  opts.lower_bounds = Vec{-1.0};
  opts.upper_bounds = Vec{1.0};
  opts.max_iterations = 0;
  const OptResult r = adam(f, Vec{50.0}, opts);  // start outside the box
  EXPECT_DOUBLE_EQ(r.x[0], 1.0);

  AdamOptions bad;
  bad.lower_bounds = Vec{0.0, 0.0};  // wrong size
  bad.upper_bounds = Vec{1.0, 1.0};
  EXPECT_THROW(adam(f, Vec{0.5}, bad), std::invalid_argument);
}

TEST(Adam, NonFiniteEvaluationsDoNotPoisonMoments) {
  // Every third evaluation blows up (NaN value, garbage gradient). The old
  // implementation fed that gradient into the m/v moment estimates, turning
  // them — and every subsequent step — into NaN. Fixed: non-finite evals
  // contribute zero gradient, momentum decays, and the search still lands
  // near the minimum.
  int calls = 0;
  const auto f = [&](std::span<const double> x, std::span<double> g) {
    ++calls;
    if (calls % 3 == 0) {
      g[0] = std::numeric_limits<double>::quiet_NaN();
      return std::numeric_limits<double>::quiet_NaN();
    }
    g[0] = 2.0 * (x[0] - 1.0);
    return (x[0] - 1.0) * (x[0] - 1.0);
  };
  AdamOptions opts;
  opts.max_iterations = 1000;
  opts.learning_rate = 0.05;
  const OptResult r = adam(f, Vec{-2.0}, opts);
  ASSERT_TRUE(std::isfinite(r.value));
  ASSERT_TRUE(std::isfinite(r.x[0]));
  EXPECT_NEAR(r.x[0], 1.0, 0.1);
}

TEST(Adam, NonFiniteInitialValueReportsInfinityNotNan) {
  // When every evaluation is non-finite the run is a washout, but it must
  // report +inf — which loses cleanly against any finite restart — rather
  // than NaN, which the old best-seen comparison propagated to the caller.
  const auto f = [](std::span<const double>, std::span<double> g) {
    g[0] = std::numeric_limits<double>::quiet_NaN();
    return std::numeric_limits<double>::quiet_NaN();
  };
  AdamOptions opts;
  opts.max_iterations = 20;
  const OptResult r = adam(f, Vec{0.5}, opts);
  EXPECT_FALSE(std::isnan(r.value));
  EXPECT_EQ(r.value, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isfinite(r.x[0]));  // iterate never NaN-poisoned
}

// ---- numerical gradient ---------------------------------------------------------------

TEST(NumericalGradient, MatchesAnalytic) {
  const auto f = [](std::span<const double> x) {
    return std::sin(x[0]) + x[1] * x[1];
  };
  const Vec x{0.7, -1.3};
  const Vec g = numerical_gradient(f, x);
  EXPECT_NEAR(g[0], std::cos(0.7), 1e-6);
  EXPECT_NEAR(g[1], -2.6, 1e-6);
}

}  // namespace
}  // namespace autodml::math
