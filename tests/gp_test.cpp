#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "gp/gp.h"
#include "gp/kernel.h"
#include "math/cholesky.h"
#include "math/optimize.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"

namespace autodml::gp {
namespace {

math::Matrix random_inputs(std::size_t n, std::size_t dim, util::Rng& rng) {
  math::Matrix x(n, dim);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t d = 0; d < dim; ++d) x(i, d) = rng.uniform();
  return x;
}

// ---- kernels -------------------------------------------------------------------

template <typename K>
class KernelTest : public ::testing::Test {};

using KernelTypes = ::testing::Types<SquaredExponentialArd, Matern52Ard>;
TYPED_TEST_SUITE(KernelTest, KernelTypes);

TYPED_TEST(KernelTest, SelfCovarianceIsSignalVariance) {
  TypeParam k(3);
  const math::Vec x{0.2, 0.5, 0.9};
  EXPECT_NEAR(k.eval(x, x), k.signal_variance(), 1e-12);
}

TYPED_TEST(KernelTest, SymmetricAndDecaying) {
  TypeParam k(2);
  const math::Vec a{0.1, 0.2}, b{0.4, 0.9}, c{0.9, 0.95};
  EXPECT_DOUBLE_EQ(k.eval(a, b), k.eval(b, a));
  // Farther point has lower covariance with a.
  EXPECT_GT(k.eval(a, b), k.eval(a, c));
  EXPECT_GT(k.eval(a, a), k.eval(a, b));
}

TYPED_TEST(KernelTest, GramMatrixIsPsd) {
  util::Rng rng(3);
  TypeParam k(4);
  const math::Matrix x = random_inputs(12, 4, rng);
  math::Matrix gram(12, 12);
  for (std::size_t i = 0; i < 12; ++i)
    for (std::size_t j = 0; j < 12; ++j) gram(i, j) = k.eval(x.row(i), x.row(j));
  EXPECT_NO_THROW(math::cholesky_with_jitter(gram));
}

TYPED_TEST(KernelTest, HyperparameterRoundTrip) {
  TypeParam k(3);
  math::Vec theta = k.hyperparams();
  theta[0] = std::log(0.7);
  theta[3] = std::log(2.5);
  k.set_hyperparams(theta);
  const math::Vec back = k.hyperparams();
  for (std::size_t i = 0; i < theta.size(); ++i)
    EXPECT_NEAR(back[i], theta[i], 1e-12);
}

TYPED_TEST(KernelTest, GradientMatchesNumerical) {
  util::Rng rng(5);
  TypeParam k(3);
  // Non-trivial hyperparameters.
  math::Vec theta = k.hyperparams();
  theta[0] = std::log(0.3);
  theta[1] = std::log(1.2);
  theta[2] = std::log(0.8);
  theta[3] = std::log(2.0);
  k.set_hyperparams(theta);
  for (int trial = 0; trial < 20; ++trial) {
    math::Vec a(3), b(3);
    for (int d = 0; d < 3; ++d) {
      a[d] = rng.uniform();
      b[d] = rng.uniform();
    }
    const math::Vec analytic = k.grad_hyper(a, b);
    const auto f = [&](std::span<const double> t) {
      auto probe = k.clone();
      probe->set_hyperparams(t);
      return probe->eval(a, b);
    };
    const math::Vec numeric = math::numerical_gradient(f, k.hyperparams());
    for (std::size_t i = 0; i < analytic.size(); ++i) {
      EXPECT_NEAR(analytic[i], numeric[i], 1e-5)
          << "hyper " << i << " trial " << trial;
    }
  }
}

// Reference derivatives in the original per-kernel form: scaled squared
// differences materialized first, then summed, then scaled by k (SE) or
// the Matern coefficient. Independent of eval_with_grad.
math::Vec reference_grad(const SquaredExponentialArd& k,
                         std::span<const double> a,
                         std::span<const double> b) {
  const auto ls = k.lengthscales();
  math::Vec u(ls.size());
  for (std::size_t d = 0; d < u.size(); ++d) {
    const double diff = (a[d] - b[d]) / ls[d];
    u[d] = diff * diff;
  }
  double s = 0.0;
  for (double ud : u) s += ud;
  const double kv = k.signal_variance() * std::exp(-0.5 * s);
  math::Vec grad(u.size() + 1);
  for (std::size_t d = 0; d < u.size(); ++d) grad[d] = kv * u[d];
  grad.back() = kv;
  return grad;
}

math::Vec reference_grad(const Matern52Ard& k, std::span<const double> a,
                         std::span<const double> b) {
  constexpr double kSqrt5 = 2.23606797749978969;
  const auto ls = k.lengthscales();
  math::Vec u(ls.size());
  for (std::size_t d = 0; d < u.size(); ++d) {
    const double diff = (a[d] - b[d]) / ls[d];
    u[d] = diff * diff;
  }
  double r2 = 0.0;
  for (double ud : u) r2 += ud;
  const double r = std::sqrt(r2);
  const double e = std::exp(-kSqrt5 * r);
  const double sv = k.signal_variance();
  const double coeff = sv * (5.0 / 3.0) * (1.0 + kSqrt5 * r) * e;
  math::Vec grad(u.size() + 1);
  for (std::size_t d = 0; d < u.size(); ++d) grad[d] = coeff * u[d];
  grad.back() = sv * (1.0 + kSqrt5 * r + (5.0 / 3.0) * r2) * e;
  return grad;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TYPED_TEST(KernelTest, EvalWithGradIsBitwiseEvalPlusGradHyper) {
  util::Rng rng(21);
  TypeParam k(4);
  for (int trial = 0; trial < 40; ++trial) {
    math::Vec theta(k.num_hyperparams());
    const auto [lo, hi] = k.hyper_bounds();
    for (std::size_t i = 0; i < theta.size(); ++i)
      theta[i] = rng.uniform(lo[i], hi[i]);
    k.set_hyperparams(theta);
    math::Vec a(4), b(4);
    for (int d = 0; d < 4; ++d) {
      a[d] = rng.uniform();
      b[d] = trial % 5 == 0 ? a[d] : rng.uniform();  // include r = 0
    }
    math::Vec grad(k.num_hyperparams(), -1.0);
    const double v = k.eval_with_grad(a, b, grad);
    EXPECT_EQ(bits(v), bits(k.eval(a, b))) << "trial " << trial;
    const math::Vec want = reference_grad(k, a, b);
    const math::Vec wrapped = k.grad_hyper(a, b);
    for (std::size_t i = 0; i < grad.size(); ++i) {
      EXPECT_EQ(bits(grad[i]), bits(want[i])) << "hyper " << i << " trial "
                                              << trial;
      EXPECT_EQ(bits(wrapped[i]), bits(want[i])) << "hyper " << i;
    }
  }
  math::Vec short_grad(k.num_hyperparams() - 1);
  EXPECT_THROW(k.eval_with_grad(math::Vec(4, 0.1), math::Vec(4, 0.2),
                                short_grad),
               std::invalid_argument);
}

TYPED_TEST(KernelTest, CloneIsIndependent) {
  TypeParam k(2);
  auto c = k.clone();
  math::Vec theta = k.hyperparams();
  theta[0] = std::log(5.0);
  k.set_hyperparams(theta);
  EXPECT_NE(c->hyperparams()[0], k.hyperparams()[0]);
}

TEST(Kernel, RejectsZeroDim) {
  EXPECT_THROW(Matern52Ard k(0), std::invalid_argument);
}

TEST(Kernel, RejectsDimensionMismatch) {
  Matern52Ard k(2);
  EXPECT_THROW(k.eval(math::Vec{0.5}, math::Vec{0.5, 0.6}),
               std::invalid_argument);
}

TEST(Kernel, InverseLengthscales) {
  SquaredExponentialArd k(2);
  math::Vec theta{std::log(0.5), std::log(2.0), std::log(1.0)};
  k.set_hyperparams(theta);
  const math::Vec inv = k.inverse_lengthscales();
  EXPECT_NEAR(inv[0], 2.0, 1e-12);
  EXPECT_NEAR(inv[1], 0.5, 1e-12);
}

// ---- GP regression -----------------------------------------------------------------

TEST(GaussianProcess, InterpolatesNoiselessData) {
  util::Rng rng(7);
  const std::size_t n = 15;
  math::Matrix x(n, 1);
  math::Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(i) / static_cast<double>(n - 1);
    y[i] = std::sin(4.0 * x(i, 0));
  }
  GpOptions options;
  options.noise_hi = 1e-3;  // force near-interpolation
  options.initial_noise = 1e-5;
  GaussianProcess gp(std::make_unique<Matern52Ard>(1), options);
  gp.fit(x, y, rng);
  for (std::size_t i = 0; i < n; ++i) {
    const GpPrediction p = gp.predict(x.row(i));
    EXPECT_NEAR(p.mean, y[i], 0.05) << "at " << x(i, 0);
  }
}

TEST(GaussianProcess, PredictsHeldOutSmoothFunction) {
  util::Rng rng(8);
  const std::size_t n = 25;
  math::Matrix x(n, 1);
  math::Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform();
    y[i] = x(i, 0) * x(i, 0) + 0.5 * x(i, 0);
  }
  GaussianProcess gp(std::make_unique<Matern52Ard>(1));
  gp.fit(x, y, rng);
  for (double t : {0.15, 0.42, 0.77}) {
    const GpPrediction p = gp.predict(math::Vec{t});
    EXPECT_NEAR(p.mean, t * t + 0.5 * t, 0.05);
  }
}

TEST(GaussianProcess, VarianceNonNegativeAndShrinksNearData) {
  util::Rng rng(9);
  math::Matrix x(5, 1);
  math::Vec y{0.0, 1.0, 0.5, -0.5, 0.2};
  for (std::size_t i = 0; i < 5; ++i) x(i, 0) = 0.1 + 0.2 * static_cast<double>(i);
  GaussianProcess gp(std::make_unique<SquaredExponentialArd>(1));
  gp.fit(x, y, rng);
  const GpPrediction at_data = gp.predict(math::Vec{0.3});
  const GpPrediction far = gp.predict(math::Vec{0.99});
  EXPECT_GE(at_data.variance, 0.0);
  EXPECT_GE(far.variance, 0.0);
  EXPECT_GT(far.variance, at_data.variance);
}

TEST(GaussianProcess, StandardizationMakesFitShiftInvariant) {
  util::Rng rng1(10), rng2(10);
  const std::size_t n = 12;
  math::Matrix x(n, 1);
  math::Vec y(n), y_shifted(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(i) / 11.0;
    y[i] = std::cos(3.0 * x(i, 0));
    y_shifted[i] = 1000.0 + 50.0 * y[i];
  }
  GaussianProcess gp1(std::make_unique<Matern52Ard>(1));
  GaussianProcess gp2(std::make_unique<Matern52Ard>(1));
  gp1.fit(x, y, rng1);
  gp2.fit(x, y_shifted, rng2);
  const double m1 = gp1.predict(math::Vec{0.5}).mean;
  const double m2 = gp2.predict(math::Vec{0.5}).mean;
  EXPECT_NEAR(m2, 1000.0 + 50.0 * m1, 1.0);
}

TEST(GaussianProcess, HyperoptImprovesMarginalLikelihood) {
  util::Rng rng(11);
  const std::size_t n = 20;
  math::Matrix x(n, 2);
  math::Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = std::sin(5.0 * x(i, 0));  // second dim irrelevant
  }
  GpOptions no_opt;
  no_opt.optimize_hyperparams = false;
  GaussianProcess fixed(std::make_unique<Matern52Ard>(2), no_opt);
  fixed.refit(x, y);
  GaussianProcess tuned(std::make_unique<Matern52Ard>(2));
  tuned.fit(x, y, rng);
  EXPECT_GT(tuned.log_marginal_likelihood(),
            fixed.log_marginal_likelihood() - 1e-9);
}

TEST(GaussianProcess, ArdDownweightsIrrelevantDimension) {
  util::Rng rng(12);
  const std::size_t n = 40;
  math::Matrix x(n, 2);
  math::Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = std::sin(6.0 * x(i, 0)) + 0.01 * rng.normal();
  }
  GaussianProcess gp(std::make_unique<Matern52Ard>(2));
  gp.fit(x, y, rng);
  const auto* ard = dynamic_cast<const ArdKernelBase*>(&gp.kernel());
  ASSERT_NE(ard, nullptr);
  const math::Vec inv = ard->inverse_lengthscales();
  EXPECT_GT(inv[0], 2.0 * inv[1]);  // active dim much more relevant
}

TEST(GaussianProcess, NoiseRecovery) {
  util::Rng rng(13);
  const std::size_t n = 60;
  math::Matrix x(n, 1);
  math::Vec y(n);
  const double true_noise_sd = 0.2;
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform();
    y[i] = std::sin(3.0 * x(i, 0)) + true_noise_sd * rng.normal();
  }
  GaussianProcess gp(std::make_unique<Matern52Ard>(1));
  gp.fit(x, y, rng);
  const double fitted_sd = std::sqrt(gp.noise_variance());
  EXPECT_GT(fitted_sd, true_noise_sd / 3.0);
  EXPECT_LT(fitted_sd, true_noise_sd * 3.0);
}

TEST(GaussianProcess, ErrorsOnMisuse) {
  GaussianProcess gp(std::make_unique<Matern52Ard>(2));
  EXPECT_THROW(gp.predict(math::Vec{0.5, 0.5}), std::logic_error);
  util::Rng rng(1);
  math::Matrix x(2, 1);  // wrong dim
  math::Vec y{1.0, 2.0};
  EXPECT_THROW(gp.fit(x, y, rng), std::invalid_argument);
  math::Matrix x2(3, 2);
  EXPECT_THROW(gp.fit(x2, y, rng), std::invalid_argument);  // size mismatch
  EXPECT_THROW(GaussianProcess(nullptr), std::invalid_argument);
}

TEST(GaussianProcess, ConstantTargetsHandled) {
  util::Rng rng(14);
  math::Matrix x(5, 1);
  for (std::size_t i = 0; i < 5; ++i) x(i, 0) = 0.2 * static_cast<double>(i);
  const math::Vec y(5, 3.0);
  GaussianProcess gp(std::make_unique<Matern52Ard>(1));
  gp.fit(x, y, rng);
  EXPECT_NEAR(gp.predict(math::Vec{0.5}).mean, 3.0, 0.2);
}

TEST(GaussianProcess, CopyIsDeep) {
  util::Rng rng(15);
  math::Matrix x(6, 1);
  math::Vec y(6);
  for (std::size_t i = 0; i < 6; ++i) {
    x(i, 0) = static_cast<double>(i) / 5.0;
    y[i] = static_cast<double>(i);
  }
  GaussianProcess gp(std::make_unique<Matern52Ard>(1));
  gp.fit(x, y, rng);
  const GaussianProcess copy(gp);
  EXPECT_NEAR(copy.predict(math::Vec{0.5}).mean,
              gp.predict(math::Vec{0.5}).mean, 1e-12);
}

// ---- analytic LML gradient vs numeric (through the public fit path) --------------

TEST(GaussianProcess, RefitKeepsHyperparameters) {
  util::Rng rng(16);
  math::Matrix x(8, 1);
  math::Vec y(8);
  for (std::size_t i = 0; i < 8; ++i) {
    x(i, 0) = static_cast<double>(i) / 7.0;
    y[i] = std::sin(2.0 * x(i, 0));
  }
  GaussianProcess gp(std::make_unique<Matern52Ard>(1));
  gp.fit(x, y, rng);
  const double lml1 = gp.log_marginal_likelihood();
  gp.refit(x, y);  // same data, no hyperopt
  EXPECT_NEAR(gp.log_marginal_likelihood(), lml1, 1e-9);
}

// ---- fused LML pass vs the two-pass reference, bit for bit ------------------------

/// Negative LML and gradient by the original two-pass formula: the Gram
/// matrix from eval(), K^{-1} assembled from the untransposed L^{-1}, then a
/// second sweep over the pairs with per-pair reference derivatives.
/// `jitter` receives the diagonal boost the factorization needed.
template <typename K>
GaussianProcess::LmlResult reference_negative_lml(
    const math::Matrix& x, std::span<const double> y,
    std::span<const double> packed, double* jitter) {
  constexpr double kLog2Pi = 1.8378770664093454836;
  K k(x.cols());
  k.set_hyperparams(packed.subspan(0, packed.size() - 1));
  const double noise_var = std::exp(packed.back());
  const std::size_t n = y.size();
  const double y_mean = util::mean(y);
  const double sd = util::stddev(y);
  const double y_scale = sd > 1e-12 ? sd : 1.0;
  math::Vec t(n);
  for (std::size_t i = 0; i < n; ++i) t[i] = (y[i] - y_mean) / y_scale;

  math::Matrix gram(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = k.eval(x.row(i), x.row(j));
      gram(i, j) = v;
      gram(j, i) = v;
    }
    gram(i, i) += noise_var;
  }
  const math::CholeskyFactor factor = math::cholesky_with_jitter(gram);
  *jitter = factor.jitter;
  const math::Vec alpha = factor.solve(t);
  GaussianProcess::LmlResult out;
  out.value = -(-0.5 * math::dot(t, alpha) - 0.5 * factor.log_det() -
                0.5 * static_cast<double>(n) * kLog2Pi);
  out.grad.assign(packed.size(), 0.0);
  const math::Matrix linv = factor.lower_inverse();
  math::Matrix kinv_lower(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t kk = i; kk < n; ++kk) acc += linv(kk, i) * linv(kk, j);
      kinv_lower(i, j) = acc;
    }
  }
  const std::size_t n_kernel = packed.size() - 1;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double w = alpha[i] * alpha[j] - kinv_lower(i, j);
      const double pair_weight = (i == j) ? 1.0 : 2.0;
      const math::Vec dk = reference_grad(k, x.row(i), x.row(j));
      for (std::size_t p = 0; p < n_kernel; ++p)
        out.grad[p] += -0.5 * pair_weight * w * dk[p];
      if (i == j) out.grad[n_kernel] += -0.5 * w * noise_var;
    }
  }
  return out;
}

template <typename K>
class LmlBitwiseTest : public ::testing::Test {};
TYPED_TEST_SUITE(LmlBitwiseTest, KernelTypes);

TYPED_TEST(LmlBitwiseTest, NegativeLmlMatchesTwoPassReference) {
  constexpr std::size_t kDim = 3;
  util::Rng rng(33);
  for (const std::size_t n : {1u, 2u, 3u, 17u, 64u}) {
    const math::Matrix x = random_inputs(n, kDim, rng);
    math::Vec y(n);
    for (std::size_t i = 0; i < n; ++i)
      y[i] = std::sin(4.0 * x(i, 0)) + x(i, 1) * x(i, 2) + 0.1 * rng.normal();
    GaussianProcess gp(std::make_unique<TypeParam>(kDim));
    gp.refit(x, y);

    const TypeParam proto(kDim);
    auto [lo, hi] = proto.hyper_bounds();
    lo.push_back(std::log(1e-8));
    hi.push_back(0.0);
    std::vector<math::Vec> thetas;
    math::Vec start = proto.hyperparams();
    start.push_back(std::log(1e-2));
    thetas.push_back(start);
    thetas.push_back({std::log(0.05), std::log(0.2), std::log(3.0),
                      std::log(4.0), std::log(1e-6)});
    for (int r = 0; r < 3; ++r) {
      math::Vec theta(lo.size());
      for (std::size_t i = 0; i < theta.size(); ++i)
        theta[i] = rng.uniform(lo[i], hi[i]);
      thetas.push_back(theta);
    }
    for (const math::Vec& theta : thetas) {
      double jitter = 0.0;
      const auto want =
          reference_negative_lml<TypeParam>(x, y, theta, &jitter);
      const auto got = gp.negative_lml(theta);
      EXPECT_EQ(bits(got.value), bits(want.value)) << "n=" << n;
      ASSERT_EQ(got.grad.size(), want.grad.size());
      for (std::size_t i = 0; i < want.grad.size(); ++i) {
        EXPECT_EQ(bits(got.grad[i]), bits(want.grad[i]))
            << "n=" << n << " hyper " << i;
      }
    }
  }
}

TYPED_TEST(LmlBitwiseTest, NearDuplicateRowsEscalateJitterIdentically) {
  // Rows that differ by 1e-13 under long lengthscales and a noise variance
  // below the Gram matrix's rounding make K + sigma^2 I numerically
  // singular, so the factorization must add jitter; the fused pass has to
  // land on the same boosted factor.
  constexpr std::size_t kDim = 2;
  constexpr std::size_t kN = 17;
  util::Rng rng(34);
  math::Matrix x(kN, kDim);
  math::Vec y(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const std::size_t base = i / 2;  // pairs of near-identical rows
    for (std::size_t d = 0; d < kDim; ++d)
      x(i, d) = 0.05 * static_cast<double>(base + d) + (i % 2) * 1e-13;
    y[i] = rng.normal();
  }
  GaussianProcess gp(std::make_unique<TypeParam>(kDim));
  gp.refit(x, y);
  const math::Vec theta{std::log(15.0), std::log(15.0), std::log(40.0),
                        std::log(1e-16)};
  double jitter = 0.0;
  const auto want = reference_negative_lml<TypeParam>(x, y, theta, &jitter);
  EXPECT_GT(jitter, 0.0);
  const auto got = gp.negative_lml(theta);
  EXPECT_EQ(bits(got.value), bits(want.value));
  for (std::size_t i = 0; i < want.grad.size(); ++i)
    EXPECT_EQ(bits(got.grad[i]), bits(want.grad[i])) << "hyper " << i;
}

// ---- batched kernel fill and the value-only likelihood, bit for bit ----

/// Lower-triangle pair differences, dimension-major: [d * pairs + p] with
/// p = i(i+1)/2 + j, j <= i — the layout eval_pairs reads.
math::Vec pair_diffs(const math::Matrix& x) {
  const std::size_t n = x.rows();
  const std::size_t pairs = n * (n + 1) / 2;
  math::Vec diffs(x.cols() * pairs);
  for (std::size_t d = 0; d < x.cols(); ++d) {
    for (std::size_t i = 0, p = 0; i < n; ++i)
      for (std::size_t j = 0; j <= i; ++j, ++p)
        diffs[d * pairs + p] = x(i, d) - x(j, d);
  }
  return diffs;
}

TYPED_TEST(LmlBitwiseTest, BatchedFillMatchesPerPairEvalAndReferenceDk) {
  util::Rng rng(35);
  for (const std::size_t dim : {1u, 4u, 19u}) {
    for (const std::size_t n : {1u, 2u, 3u, 17u, 64u}) {
      TypeParam k(dim);
      const auto [lo, hi] = k.hyper_bounds();
      math::Vec theta(k.num_hyperparams());
      for (std::size_t i = 0; i < theta.size(); ++i)
        theta[i] = rng.uniform(lo[i], hi[i]);
      k.set_hyperparams(theta);
      math::Vec hypers(theta.size());
      for (std::size_t i = 0; i < theta.size(); ++i)
        hypers[i] = std::exp(theta[i]);

      math::Matrix x = random_inputs(n, dim, rng);
      if (n > 2) x.row(2)[0] = x.row(1)[0];  // an exactly zero difference
      const math::Vec diffs = pair_diffs(x);
      const std::size_t pairs = n * (n + 1) / 2;
      math::Vec value(pairs), value_only(pairs);
      math::Vec coeff(pairs, -1.0);
      k.eval_pairs(hypers, diffs, value, coeff);
      k.eval_pairs(hypers, diffs, value_only, {});
      for (std::size_t i = 0, p = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j, ++p) {
          const double want = k.eval(x.row(i), x.row(j));
          EXPECT_EQ(bits(value[p]), bits(want))
              << "d=" << dim << " n=" << n << " pair " << p;
          EXPECT_EQ(bits(value_only[p]), bits(want)) << "pair " << p;
          // dK: coeff * u_d per lengthscale, k for the signal variance.
          const math::Vec grad = reference_grad(k, x.row(i), x.row(j));
          for (std::size_t d = 0; d < dim; ++d) {
            const double u = scaled_sq(diffs[d * pairs + p], hypers[d]);
            EXPECT_EQ(bits(coeff[p] * u), bits(grad[d]))
                << "d=" << dim << " n=" << n << " pair " << p << " dim " << d;
          }
          EXPECT_EQ(bits(value[p]), bits(grad[dim])) << "pair " << p;
        }
      }
    }
  }
  TypeParam k(2);
  math::Vec value(3), short_coeff(2);
  EXPECT_THROW(k.eval_pairs(math::Vec(3, 1.0), math::Vec(5, 0.0), value, {}),
               std::invalid_argument);
  EXPECT_THROW(
      k.eval_pairs(math::Vec(3, 1.0), math::Vec(6, 0.0), value, short_coeff),
      std::invalid_argument);
}

/// Value-only evaluation on a fresh copy of `gp` against the gradient
/// path's value on another, so neither is served by the other's memo.
void expect_value_only_matches(const GaussianProcess& gp,
                               std::span<const double> theta) {
  const GaussianProcess value_side(gp);
  const GaussianProcess grad_side(gp);
  const double value = value_side.negative_lml_value(theta);
  EXPECT_EQ(bits(value), bits(grad_side.negative_lml(theta).value));
}

TYPED_TEST(LmlBitwiseTest, ValueOnlyMatchesNegativeLmlValue) {
  constexpr std::size_t kDim = 3;
  util::Rng rng(36);
  for (const std::size_t n : {1u, 2u, 3u, 17u, 64u}) {
    const math::Matrix x = random_inputs(n, kDim, rng);
    math::Vec y(n);
    for (std::size_t i = 0; i < n; ++i)
      y[i] = std::cos(3.0 * x(i, 0)) + x(i, 1) + 0.1 * rng.normal();
    GaussianProcess gp(std::make_unique<TypeParam>(kDim));
    gp.refit(x, y);
    auto [lo, hi] = TypeParam(kDim).hyper_bounds();
    lo.push_back(std::log(1e-8));
    hi.push_back(0.0);
    for (int r = 0; r < 4; ++r) {
      math::Vec theta(lo.size());
      for (std::size_t i = 0; i < theta.size(); ++i)
        theta[i] = rng.uniform(lo[i], hi[i]);
      expect_value_only_matches(gp, theta);
    }
  }
}

TYPED_TEST(LmlBitwiseTest, ValueOnlyMatchesUnderJitterEscalation) {
  // The near-duplicate setup of NearDuplicateRowsEscalateJitterIdentically.
  constexpr std::size_t kDim = 2;
  constexpr std::size_t kN = 17;
  util::Rng rng(34);
  math::Matrix x(kN, kDim);
  math::Vec y(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const std::size_t base = i / 2;
    for (std::size_t d = 0; d < kDim; ++d)
      x(i, d) = 0.05 * static_cast<double>(base + d) + (i % 2) * 1e-13;
    y[i] = rng.normal();
  }
  GaussianProcess gp(std::make_unique<TypeParam>(kDim));
  gp.refit(x, y);
  const math::Vec theta{std::log(15.0), std::log(15.0), std::log(40.0),
                        std::log(1e-16)};
  double jitter = 0.0;
  reference_negative_lml<TypeParam>(x, y, theta, &jitter);
  ASSERT_GT(jitter, 0.0);
  expect_value_only_matches(gp, theta);
}

TYPED_TEST(LmlBitwiseTest, ValueOnlyMatchesOnRejectedPoint) {
  if (AUTODML_CHECKED_ENABLED)
    GTEST_SKIP() << "checked builds stop at the non-finite kernel value";
  // A lengthscale that underflows to 0 makes the diagonal pairs 0/0: the
  // factorization fails at every jitter and the point is rejected.
  constexpr std::size_t kDim = 2;
  util::Rng rng(37);
  const math::Matrix x = random_inputs(5, kDim, rng);
  const math::Vec y{0.1, -0.4, 0.9, 0.3, -0.2};
  GaussianProcess gp(std::make_unique<TypeParam>(kDim));
  gp.refit(x, y);
  const math::Vec theta{-800.0, 0.0, 0.0, std::log(1e-2)};
  const GaussianProcess::LmlResult full =
      GaussianProcess(gp).negative_lml(theta);
  EXPECT_EQ(full.value, 1e100);
  for (double g : full.grad) EXPECT_EQ(g, 0.0);
  expect_value_only_matches(gp, theta);
}

/// Reads one counter of the process-wide registry.
std::int64_t counter_value(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

TEST(LmlMemo, ValueOnlyEntryNeverServesAGradientRequest) {
  constexpr std::size_t kDim = 2;
  util::Rng rng(38);
  const math::Matrix x = random_inputs(9, kDim, rng);
  math::Vec y(9);
  for (std::size_t i = 0; i < 9; ++i) y[i] = std::sin(5.0 * x(i, 0));
  GaussianProcess gp(std::make_unique<Matern52Ard>(kDim));
  gp.refit(x, y);
  const GaussianProcess fresh(gp);
  const math::Vec theta{std::log(0.3), std::log(0.7), 0.0, std::log(1e-3)};

  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  const bool was_enabled = registry.enabled();
  registry.enable();
  const std::int64_t evals0 = counter_value("gp.lml_evals");
  const std::int64_t hits0 = counter_value("gp.lml_cache_hits");
  const double value = gp.negative_lml_value(theta);
  EXPECT_EQ(counter_value("gp.lml_evals") - evals0, 1);
  EXPECT_EQ(bits(gp.negative_lml_value(theta)), bits(value));
  EXPECT_EQ(counter_value("gp.lml_cache_hits") - hits0, 1);
  // The memo holds a value-only entry at theta: the gradient request must
  // evaluate, and counts one evaluation, not a hit.
  const GaussianProcess::LmlResult full = gp.negative_lml(theta);
  EXPECT_EQ(counter_value("gp.lml_evals") - evals0, 2);
  EXPECT_EQ(counter_value("gp.lml_cache_hits") - hits0, 1);
  // Now the entry carries the gradient and serves both kinds of request.
  EXPECT_EQ(bits(gp.negative_lml_value(theta)), bits(value));
  const GaussianProcess::LmlResult again = gp.negative_lml(theta);
  EXPECT_EQ(counter_value("gp.lml_evals") - evals0, 2);
  EXPECT_EQ(counter_value("gp.lml_cache_hits") - hits0, 3);
  if (!was_enabled) registry.disable();

  const GaussianProcess::LmlResult want = fresh.negative_lml(theta);
  EXPECT_EQ(bits(full.value), bits(want.value));
  ASSERT_EQ(full.grad.size(), want.grad.size());
  for (std::size_t i = 0; i < want.grad.size(); ++i) {
    EXPECT_EQ(bits(full.grad[i]), bits(want.grad[i])) << "hyper " << i;
    EXPECT_EQ(bits(again.grad[i]), bits(want.grad[i])) << "hyper " << i;
  }
}

/// Packed fitted hyperparameters [kernel log-hypers..., noise variance].
math::Vec fitted(const GaussianProcess& gp) {
  math::Vec out = gp.kernel().hyperparams();
  out.push_back(gp.noise_variance());
  return out;
}

TEST(LmlMemo, InterleavedGpsMatchSoloRuns) {
  // Likelihood scratch belongs to one evaluation or one hyperopt round, so
  // two models (here a GP and its copy, on different data) evaluated and
  // fitted in turn give exactly what each gives alone.
  constexpr std::size_t kDim = 4;
  util::Rng rng(39);
  const math::Matrix xa = random_inputs(12, kDim, rng);
  const math::Matrix xb = random_inputs(15, kDim, rng);
  math::Vec ya(12), yb(15);
  for (std::size_t i = 0; i < 12; ++i)
    ya[i] = std::sin(4.0 * xa(i, 0)) + xa(i, 3);
  for (std::size_t i = 0; i < 15; ++i) yb[i] = xb(i, 1) * xb(i, 2) - xb(i, 0);
  GaussianProcess proto(std::make_unique<SquaredExponentialArd>(kDim));
  proto.refit(xa, ya);
  std::vector<math::Vec> thetas;
  for (int r = 0; r < 5; ++r) {
    math::Vec theta(kDim + 2);
    for (double& v : theta) v = rng.uniform(-2.0, 1.0);
    thetas.push_back(theta);
  }

  const auto make_b = [&] {
    GaussianProcess b(proto);
    b.refit(xb, yb);
    return b;
  };
  // Solo: all of A, then all of B.
  std::vector<GaussianProcess::LmlResult> solo_a, solo_b;
  {
    GaussianProcess a(proto);
    for (const auto& t : thetas) solo_a.push_back(a.negative_lml(t));
    GaussianProcess b = make_b();
    for (const auto& t : thetas) solo_b.push_back(b.negative_lml(t));
  }
  // Interleaved: A and B alternate, value-only requests in between.
  GaussianProcess a(proto);
  GaussianProcess b = make_b();
  for (std::size_t r = 0; r < thetas.size(); ++r) {
    b.negative_lml_value(thetas[(r + 1) % thetas.size()]);
    const auto ra = a.negative_lml(thetas[r]);
    a.negative_lml_value(thetas[(r + 2) % thetas.size()]);
    const auto rb = b.negative_lml(thetas[r]);
    EXPECT_EQ(bits(ra.value), bits(solo_a[r].value)) << "theta " << r;
    EXPECT_EQ(bits(rb.value), bits(solo_b[r].value)) << "theta " << r;
    for (std::size_t i = 0; i < ra.grad.size(); ++i) {
      EXPECT_EQ(bits(ra.grad[i]), bits(solo_a[r].grad[i])) << "theta " << r;
      EXPECT_EQ(bits(rb.grad[i]), bits(solo_b[r].grad[i])) << "theta " << r;
    }
  }

  // Fits: each model's own rng stream, alone vs alternating over a growing
  // training set.
  const auto prefix = [](const math::Matrix& x, std::size_t n) {
    math::Matrix out(n, x.cols());
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t d = 0; d < x.cols(); ++d) out(i, d) = x(i, d);
    return out;
  };
  std::vector<math::Vec> fit_a, fit_b;
  {
    GaussianProcess sa(proto), sb(proto);
    util::Rng ra(1), rb(2);
    for (std::size_t n = 3; n <= 6; ++n) {
      sa.fit(prefix(xa, n), std::span(ya).subspan(0, n), ra);
      fit_a.push_back(fitted(sa));
    }
    for (std::size_t n = 3; n <= 6; ++n) {
      sb.fit(prefix(xb, n), std::span(yb).subspan(0, n), rb);
      fit_b.push_back(fitted(sb));
    }
  }
  GaussianProcess fa(proto), fb(proto);
  util::Rng ra(1), rb(2);
  for (std::size_t n = 3; n <= 6; ++n) {
    fb.fit(prefix(xb, n), std::span(yb).subspan(0, n), rb);
    fa.fit(prefix(xa, n), std::span(ya).subspan(0, n), ra);
    const math::Vec got_a = fitted(fa), got_b = fitted(fb);
    for (std::size_t i = 0; i < got_a.size(); ++i) {
      EXPECT_EQ(bits(got_a[i]), bits(fit_a[n - 3][i])) << "n=" << n;
      EXPECT_EQ(bits(got_b[i]), bits(fit_b[n - 3][i])) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace autodml::gp
