#include "gp/gp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

#include "gp/blocked.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace autodml::gp {

namespace {
constexpr double kLog2Pi = 1.8378770664093454836;

// The two triangular products of the likelihood gradient, a row at a
// time: every entry of the row accumulates together, each entry's sum in
// ascending k from 0.0. Out of line so that the __restrict qualifiers hold
// and the blocks vectorize; `out` may be a row of the matrix `inv` points
// into, but never one read through `inv`.

/// Row i of L^{-1} from row i of L and rows 0..i-1 of L^{-1} (row stride
/// n): out[j] = -(sum_{k=j}^{i-1} L(i,k) L^{-1}(k,j)) / L(i,i) for j < i,
/// out[i] = 1 / L(i,i).
[[gnu::noinline]] void lower_inverse_row(const double* __restrict l_i,
                                         const double* __restrict inv,
                                         std::size_t n, std::size_t i,
                                         double* __restrict out) {
  std::fill(out, out + i, 0.0);
  for (std::size_t k = 0; k < i; ++k) {
    const double a = l_i[k];
    const double* inv_k = inv + k * n;
    for_each_blocked(k + 1, [=](std::size_t j) { out[j] += a * inv_k[j]; });
  }
  const double pivot = l_i[i];
  for_each_blocked(i, [=](std::size_t j) { out[j] = -out[j] / pivot; });
  out[i] = 1.0 / pivot;
}

/// Row i of K^{-1}, lower half, from L^{-1} (n x n):
/// out[j] = sum_{k=i}^{n-1} L^{-1}(k,i) L^{-1}(k,j) for j <= i.
[[gnu::noinline]] void inverse_row(const double* __restrict inv,
                                   std::size_t n, std::size_t i,
                                   double* __restrict out) {
  std::fill(out, out + i + 1, 0.0);
  for (std::size_t k = i; k < n; ++k) {
    const double* inv_k = inv + k * n;
    const double a = inv_k[i];
    for_each_blocked(i + 1, [=](std::size_t j) { out[j] += a * inv_k[j]; });
  }
}

/// out[r] = sum_p w[p] * (s[p] * u_r[p]) over p in [0, n), with
/// u_r[p] = scaled_sq(diffs[r * n + p], l[r]) formed as eval_pairs forms
/// it; each sum in ascending p from 0.0, the kRows chains interleaved.
template <std::size_t kRows>
void weighted_row_sums(const double* w, const double* s, const double* diffs,
                       const double* l, std::size_t n, double* out) {
  double acc[kRows] = {};
  for (std::size_t p = 0; p < n; ++p) {
    const double wp = w[p];
    const double sp = s[p];
    for (std::size_t r = 0; r < kRows; ++r)
      acc[r] += wp * (sp * scaled_sq(diffs[r * n + p], l[r]));
  }
  for (std::size_t r = 0; r < kRows; ++r) out[r] = acc[r];
}

/// out[c] += k[c] * a over the m points of one training row: a block's
/// dot(k*, alpha), each point's sum in ascending row order.
[[gnu::noinline]] void add_scaled_row(const double* __restrict k, double a,
                                      double* __restrict out, std::size_t m) {
  for_each_blocked(m, [=](std::size_t c) { out[c] += k[c] * a; });
}

/// Row i of the forward substitution L V = K* for m points at once, in
/// place on `out` (row i of K*): subtracts L(i,j) V(j,c) in ascending j
/// over the solved rows 0..i-1 of `solved` (row stride m), divides by
/// L(i,i), then adds V(i,c)^2 to sq[c]. Each point's entry takes
/// solve_lower's and dot(v, v)'s operations in their order.
[[gnu::noinline]] void forward_row(const double* __restrict l_i,
                                   const double* __restrict solved,
                                   std::size_t i, std::size_t m,
                                   double* __restrict out,
                                   double* __restrict sq) {
  for (std::size_t j = 0; j < i; ++j) {
    const double a = l_i[j];
    const double* v_j = solved + j * m;
    for_each_blocked(m, [=](std::size_t c) { out[c] -= a * v_j[c]; });
  }
  const double pivot = l_i[i];
  for_each_blocked(m, [=](std::size_t c) {
    out[c] = out[c] / pivot;
    sq[c] += out[c] * out[c];
  });
}

/// Rows per interleaved block of the gradient sums.
constexpr std::size_t kRowBlock = 8;

void clamp_to_bounds(std::span<double> x, std::span<const double> lo,
                     std::span<const double> hi) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::clamp(x[i], lo[i], hi[i]);
  }
}
}  // namespace

double target_scale(std::span<const double> y) {
  const double sd = util::stddev(y);
  return sd > 1e-12 ? sd : 1.0;
}

GaussianProcess::GaussianProcess(std::unique_ptr<Kernel> kernel,
                                 GpOptions options)
    : kernel_(std::move(kernel)),
      options_(options),
      log_noise_(std::log(options.initial_noise)) {
  if (!kernel_) throw std::invalid_argument("GaussianProcess: null kernel");
  if (!dynamic_cast<const ArdKernelBase*>(kernel_.get()))
    throw std::invalid_argument(
        "GaussianProcess: kernel must derive from ArdKernelBase");
}

GaussianProcess::GaussianProcess(const GaussianProcess& other)
    : kernel_(other.kernel_->clone()),
      options_(other.options_),
      log_noise_(other.log_noise_),
      x_(other.x_),
      targets_raw_(other.targets_raw_),
      targets_std_(other.targets_std_),
      y_mean_(other.y_mean_),
      y_scale_(other.y_scale_),
      factor_(other.factor_),
      alpha_(other.alpha_),
      data_version_(other.data_version_),
      lml_cache_(other.lml_cache_) {}

math::Vec GaussianProcess::packed_hypers() const {
  math::Vec packed = kernel_->hyperparams();
  packed.push_back(log_noise_);
  return packed;
}

void GaussianProcess::apply_packed(std::span<const double> packed) {
  kernel_->set_hyperparams(packed.subspan(0, packed.size() - 1));
  log_noise_ = packed.back();
}

struct GaussianProcess::LmlWorkspace {
  LmlWorkspace(const math::Matrix& x, std::size_t n_kernel);

  std::size_t n;
  std::size_t pairs;  // lower-triangle pairs p = i(i+1)/2 + j, j <= i
  math::Vec diffs;    // x_i[d] - x_j[d] at [d * pairs + p]
  math::Vec hypers;   // exp() of the packed kernel log-hypers
  math::Vec value;    // k per pair
  math::Vec coeff;    // d k / d log l_d = coeff[p] * scaled_sq(diff, l_d)
  math::Vec weight;   // per-pair gradient weight -1/2 (2 - [i == j]) W_ij
  math::Vec alpha;    // K^{-1} y
  math::Vec kinv;     // one row of K^{-1}
  math::Matrix gram;
  math::Matrix linv;  // L^{-1}, lower triangle
};

GaussianProcess::LmlWorkspace::LmlWorkspace(const math::Matrix& x,
                                            std::size_t n_kernel)
    : n(x.rows()),
      pairs(n * (n + 1) / 2),
      diffs(x.cols() * pairs),
      hypers(n_kernel),
      value(pairs),
      coeff(pairs),
      weight(pairs),
      alpha(n),
      kinv(n),
      gram(n, n),
      linv(n, n) {
  for (std::size_t d = 0; d < x.cols(); ++d) {
    double* out = diffs.data() + d * pairs;
    for (std::size_t i = 0, p = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j, ++p) out[p] = x(i, d) - x(j, d);
    }
  }
}

GaussianProcess::LmlResult GaussianProcess::negative_lml(
    std::span<const double> packed) const {
  LmlWorkspace ws(x_, kernel_->num_hyperparams());
  LmlResult out;
  out.grad.assign(packed.size(), 0.0);
  out.value = evaluate_nlml(packed, ws, out.grad);
  return out;
}

double GaussianProcess::negative_lml_value(
    std::span<const double> packed) const {
  LmlWorkspace ws(x_, kernel_->num_hyperparams());
  return evaluate_nlml(packed, ws, {});
}

double GaussianProcess::evaluate_nlml(std::span<const double> packed,
                                      LmlWorkspace& ws,
                                      std::span<double> grad) const {
  const std::size_t n_kernel = kernel_->num_hyperparams();
  if (packed.size() != n_kernel + 1 ||
      (!grad.empty() && grad.size() != packed.size()))
    throw std::invalid_argument("GaussianProcess: hyperparameter count");
  const bool with_grad = !grad.empty();
  if (lml_cache_ && lml_cache_->data_version == data_version_ &&
      (lml_cache_->has_grad || !with_grad) &&
      std::equal(packed.begin(), packed.end(), lml_cache_->theta.begin(),
                 lml_cache_->theta.end())) {
    ADML_COUNT("gp.lml_cache_hits", 1);
    if (with_grad)
      std::copy(lml_cache_->grad.begin(), lml_cache_->grad.end(), grad.begin());
    return lml_cache_->value;
  }
  ADML_COUNT("gp.lml_evals", 1);

  // Every pair's Gram entry (and, for a gradient, the coefficient of its
  // dK/dlog l_d) in one batched kernel call at exp(packed), without
  // touching kernel_.
  const std::size_t n = ws.n;
  const std::size_t pairs = ws.pairs;
  for (std::size_t t = 0; t < n_kernel; ++t) ws.hypers[t] = std::exp(packed[t]);
  const double noise_var = std::exp(packed.back());
  ard().eval_pairs(ws.hypers, ws.diffs, ws.value,
                   with_grad ? std::span<double>(ws.coeff)
                             : std::span<double>());
  for (std::size_t i = 0, p = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j, ++p) {
      const double v = ws.value[p];
      AUTODML_CHECK(std::isfinite(v),
                    "GP kernel produced non-finite value " +
                        std::to_string(v) + " for training pair (" +
                        std::to_string(i) + "," + std::to_string(j) + ")");
      ws.gram(i, j) = v;
      ws.gram(j, i) = v;
    }
    ws.gram(i, i) += noise_var;
  }

  math::CholeskyFactor factor;
  try {
    factor = math::cholesky_with_jitter(ws.gram);
  } catch (const std::runtime_error&) {
    std::fill(grad.begin(), grad.end(), 0.0);
    return 1e100;  // reject this hyperparameter point
  }
  math::Vec& alpha = ws.alpha;
  std::copy(targets_std_.begin(), targets_std_.end(), alpha.begin());
  factor.solve_in_place(alpha);
  const double fit_term = 0.5 * math::dot(targets_std_, alpha);
  const double lml = -fit_term - 0.5 * factor.log_det() -
                     0.5 * static_cast<double>(n) * kLog2Pi;
  const double value = -lml;

  if (with_grad) {
    // Gradient: dLML/dtheta = 0.5 tr((alpha alpha^T - K^{-1}) dK/dtheta).
    // K^{-1} = L^{-T} L^{-1} from the triangular inverse of the factor
    // (~n^3/3 flops for inverse + symmetric product) instead of n
    // unit-vector solves (~2n^3). Only the lower half is needed: both W and
    // dK/dtheta are symmetric, so each off-diagonal pair counts twice.
    double* linv = ws.linv.data().data();
    for (std::size_t i = 0; i < n; ++i)
      lower_inverse_row(factor.lower.row(i).data(), linv, n, i, linv + i * n);
    double* kinv = ws.kinv.data();
    for (std::size_t i = 0, p = 0; i < n; ++i) {
      inverse_row(linv, n, i, kinv);
      for (std::size_t j = 0; j <= i; ++j, ++p) {
        const double w = alpha[i] * alpha[j] - kinv[j];
        const double pair_weight = (i == j) ? 1.0 : 2.0;
        ws.weight[p] = -0.5 * pair_weight * w;  // negative LML
      }
    }
    // Each component sums its pair terms weight * dK in ascending pair order;
    // dK/dlog l_d = coeff * u_d with u_d recomputed from the differences,
    // dK/dlog s^2 = k.
    const std::size_t dim = n_kernel - 1;
    std::size_t d = 0;
    for (; d + kRowBlock <= dim; d += kRowBlock) {
      weighted_row_sums<kRowBlock>(ws.weight.data(), ws.coeff.data(),
                                   ws.diffs.data() + d * pairs, &ws.hypers[d],
                                   pairs, &grad[d]);
    }
    for (; d < dim; ++d) {
      weighted_row_sums<1>(ws.weight.data(), ws.coeff.data(),
                           ws.diffs.data() + d * pairs, &ws.hypers[d], pairs,
                           &grad[d]);
    }
    double g_signal = 0.0;
    for (std::size_t p = 0; p < pairs; ++p)
      g_signal += ws.weight[p] * ws.value[p];
    grad[dim] = g_signal;
    double g_noise = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      g_noise += ws.weight[i * (i + 3) / 2] * noise_var;
    grad[n_kernel] = g_noise;
  }

  if (!lml_cache_) lml_cache_.emplace();
  lml_cache_->theta.assign(packed.begin(), packed.end());
  lml_cache_->data_version = data_version_;
  lml_cache_->has_grad = with_grad;
  lml_cache_->value = value;
  lml_cache_->grad.assign(grad.begin(), grad.end());
  return value;
}

void GaussianProcess::factorize() {
  const std::size_t n = targets_std_.size();
  const double noise_var = std::exp(log_noise_);
  math::Matrix gram(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = kernel_->eval(x_.row(i), x_.row(j));
      AUTODML_CHECK(std::isfinite(v),
                    "GP kernel produced non-finite value " +
                        std::to_string(v) + " for training pair (" +
                        std::to_string(i) + "," + std::to_string(j) + ")");
      gram(i, j) = v;
      gram(j, i) = v;
    }
    gram(i, i) += noise_var;
  }
  factor_ = math::cholesky_with_jitter(gram);
  alpha_ = factor_->solve(targets_std_);
}

void GaussianProcess::refit(const math::Matrix& x, std::span<const double> y) {
  ADML_SPAN("gp.refit", "n", static_cast<std::int64_t>(x.rows()));
  if (x.rows() != y.size())
    throw std::invalid_argument("GaussianProcess: X/y size mismatch");
  if (x.rows() == 0)
    throw std::invalid_argument("GaussianProcess: empty training set");
  if (x.cols() != kernel_->input_dim())
    throw std::invalid_argument("GaussianProcess: input dimension mismatch");
  math::check_finite(x.data(), "GP training inputs");
  math::check_finite(y, "GP training targets");
  x_ = x;
  targets_raw_.assign(y.begin(), y.end());
  y_mean_ = util::mean(y);
  y_scale_ = target_scale(y);
  targets_std_.resize(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    targets_std_[i] = (y[i] - y_mean_) / y_scale_;
  }
  ++data_version_;
  lml_cache_.reset();
  factorize();
}

bool GaussianProcess::append_observation(std::span<const double> x, double y) {
  ADML_SPAN("gp.append", "n", static_cast<std::int64_t>(targets_raw_.size()));
  if (!factor_)
    throw std::logic_error("GaussianProcess: append_observation before fit");
  if (x.size() != kernel_->input_dim())
    throw std::invalid_argument("GaussianProcess: input dimension mismatch");
  math::check_finite(x, "GP appended input");
  if (!std::isfinite(y))
    throw std::invalid_argument("GaussianProcess: non-finite target");

  const std::size_t n = targets_raw_.size();
  const double noise_var = std::exp(log_noise_);
  math::Vec col(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = kernel_->eval(x_.row(i), x);
    AUTODML_CHECK(std::isfinite(v),
                  "GP kernel produced non-finite value " + std::to_string(v) +
                      " for appended pair (" + std::to_string(i) + ")");
    col[i] = v;
  }
  const double diag = kernel_->eval(x, x) + noise_var;

  math::Matrix xe(n + 1, x_.cols());
  std::copy(x_.data().begin(), x_.data().end(), xe.data().begin());
  std::copy(x.begin(), x.end(), xe.row(n).begin());
  x_ = std::move(xe);
  targets_raw_.push_back(y);
  ++data_version_;
  lml_cache_.reset();

  // Standardization statistics shift with the new target; the Gram matrix
  // does not depend on them, so only alpha needs recomputing.
  y_mean_ = util::mean(targets_raw_);
  y_scale_ = target_scale(targets_raw_);
  targets_std_.resize(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    targets_std_[i] = (targets_raw_[i] - y_mean_) / y_scale_;
  }

  if (!factor_->append_row(col, diag)) {
    // Extended matrix not PD at the stored jitter (new point nearly
    // duplicates an old one): pay the full jitter-adaptive refactorization.
    ADML_COUNT("gp.append_refactorized", 1);
    factorize();
    return false;
  }
  ADML_COUNT("gp.append_fast", 1);
#if AUTODML_CHECKED_ENABLED
  // Cross-verify the incremental factor against a from-scratch
  // factorization of the same jittered Gram matrix (O(n^3), checked builds
  // only).
  {
    math::Matrix gram(n + 1, n + 1);
    for (std::size_t i = 0; i <= n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        const double v = kernel_->eval(x_.row(i), x_.row(j));
        gram(i, j) = v;
        gram(j, i) = v;
      }
      gram(i, i) += noise_var + factor_->jitter;
    }
    // Compare against the scalar path specifically: append_row replays its
    // recurrence bit-for-bit, while the blocked path (which cholesky()
    // would dispatch to at this size) differs in summation order.
    const auto full = math::cholesky_scalar(gram);
    AUTODML_CHECK(full.has_value(),
                  "GP incremental update: full factorization failed where "
                  "the rank-1 append succeeded");
    const double diff = math::Matrix::max_abs_diff(full->lower, factor_->lower);
    AUTODML_CHECK(diff <= 1e-8,
                  "GP incremental Cholesky factor diverges from full "
                  "refactorization by " + std::to_string(diff));
  }
#endif
  alpha_ = factor_->solve(targets_std_);
  return true;
}

std::optional<GaussianProcess::HyperoptPlan> GaussianProcess::plan_hyperopt(
    std::size_t n, util::Rng& rng) const {
  if (!options_.optimize_hyperparams || n < 3) return std::nullopt;
  HyperoptPlan plan;
  std::tie(plan.lo, plan.hi) = kernel_->hyper_bounds();
  plan.lo.push_back(std::log(options_.noise_lo));
  plan.hi.push_back(std::log(options_.noise_hi));
  for (int restart = 1; restart <= options_.restarts; ++restart) {
    math::Vec start(plan.lo.size());
    for (std::size_t i = 0; i < start.size(); ++i) {
      start[i] = rng.uniform(plan.lo[i], plan.hi[i]);
    }
    plan.starts.push_back(std::move(start));
  }
  return plan;
}

void GaussianProcess::skip_fit(std::size_t n, util::Rng& rng) const {
  plan_hyperopt(n, rng);
}

void GaussianProcess::fit(const math::Matrix& x, std::span<const double> y,
                          util::Rng& rng) {
  ADML_SPAN("gp.fit", "n", static_cast<std::int64_t>(x.rows()));
  refit(x, y);
  const std::optional<HyperoptPlan> plan = plan_hyperopt(y.size(), rng);
  if (!plan) return;
  ADML_SPAN("gp.hyperopt", "n", static_cast<std::int64_t>(x.rows()));
  ADML_COUNT("gp.hyperopt_rounds", 1);
  const math::Vec& lo = plan->lo;
  const math::Vec& hi = plan->hi;

  // Adam projects its iterates onto [lo, hi] (AdamOptions bounds below), so
  // the gradient is always evaluated at the point the step actually reached.
  LmlWorkspace ws(x_, kernel_->num_hyperparams());
  const auto objective_grad = [&](std::span<const double> theta,
                                  std::span<double> grad) {
    return evaluate_nlml(theta, ws, grad);
  };
  // The values before and after each Adam run take the gradient path too:
  // the next gradient request at the same point then hits the memo.
  math::Vec grad(lo.size());
  const auto value_with_grad = [&](std::span<const double> theta) {
    return evaluate_nlml(theta, ws, grad);
  };
  // Nelder-Mead reads only the value and has no projection support; clamp
  // inside the objective.
  math::Vec projected(lo.size());
  const auto value_only = [&](std::span<const double> theta) {
    std::copy(theta.begin(), theta.end(), projected.begin());
    clamp_to_bounds(projected, lo, hi);
    return evaluate_nlml(projected, ws, {});
  };

  math::AdamOptions adam_opts;
  adam_opts.max_iterations = options_.adam_iterations;
  adam_opts.lower_bounds = lo;
  adam_opts.upper_bounds = hi;

  math::Vec best_theta = packed_hypers();
  clamp_to_bounds(best_theta, lo, hi);
  double best_value = value_with_grad(best_theta);

  for (int restart = 0; restart <= options_.restarts; ++restart) {
    // Restart 0 warm-starts from the current hyperparameters.
    const math::Vec& start =
        restart == 0 ? best_theta
                     : plan->starts[static_cast<std::size_t>(restart - 1)];
    const auto result = math::adam(objective_grad, start, adam_opts);
    math::Vec candidate = result.x;
    clamp_to_bounds(candidate, lo, hi);
    const double value = value_with_grad(candidate);
    if (value < best_value) {
      best_value = value;
      best_theta = candidate;
    }
  }

  if (options_.polish_iterations > 0) {
    math::NelderMeadOptions nm;
    nm.max_iterations = options_.polish_iterations;
    nm.initial_step = 0.2;
    const auto polished = math::nelder_mead(value_only, best_theta, nm);
    math::Vec candidate = polished.x;
    clamp_to_bounds(candidate, lo, hi);
    if (polished.value < best_value) best_theta = candidate;
  }

  apply_packed(best_theta);
  factorize();
}

GpPrediction GaussianProcess::predict(std::span<const double> x) const {
  if (!factor_) throw std::logic_error("GaussianProcess: predict before fit");
  math::check_finite(x, "GP prediction input");
  const std::size_t n = targets_std_.size();
  math::Vec k_star(n);
  for (std::size_t i = 0; i < n; ++i) k_star[i] = kernel_->eval(x_.row(i), x);
  math::check_finite(k_star, "GP cross-covariance");

  const double mean_std = math::dot(k_star, alpha_);
  const math::Vec v = factor_->solve_lower(k_star);
  const double k_xx = kernel_->eval(x, x);
  const double var_std = std::max(0.0, k_xx - math::dot(v, v));

  GpPrediction out;
  out.mean = mean_std * y_scale_ + y_mean_;
  out.variance = var_std * y_scale_ * y_scale_;
  return out;
}

void GaussianProcess::predict_batch(std::span<const double> xs,
                                    std::span<GpPrediction> out,
                                    bool with_variance) const {
  if (!factor_) throw std::logic_error("GaussianProcess: predict before fit");
  const std::size_t dim = x_.cols();
  if (xs.size() != out.size() * dim)
    throw std::invalid_argument("GaussianProcess: predict_batch size mismatch");
  math::check_finite(xs, "GP prediction input");
  const std::size_t n = targets_std_.size();
  const std::size_t block = std::min(kPredictBlock, out.size());
  math::Vec ct(dim * block);     // the block's points, dimension-major
  math::Vec cross(n * block);    // k(x_i, c) at [i * m + c], then L^{-1} k*
  math::Vec mean(block), sq(block);
  const double* l = factor_->lower.data().data();
  for (std::size_t b = 0; b < out.size(); b += block) {
    const std::size_t m = std::min(block, out.size() - b);
    const double* pts = xs.data() + b * dim;
    for (std::size_t c = 0; c < m; ++c) {
      for (std::size_t d = 0; d < dim; ++d) ct[d * m + c] = pts[c * dim + d];
    }
    const std::span<double> k_star(cross.data(), n * m);
    ard().eval_cross(x_.data(), std::span<const double>(ct.data(), dim * m),
                     m, k_star);
    math::check_finite(k_star, "GP cross-covariance");
    std::fill_n(mean.begin(), m, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      add_scaled_row(k_star.data() + i * m, alpha_[i], mean.data(), m);
    if (with_variance) {
      std::fill_n(sq.begin(), m, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        forward_row(l + i * n, k_star.data(), i, m, k_star.data() + i * m,
                    sq.data());
      }
    }
    for (std::size_t c = 0; c < m; ++c) {
      GpPrediction& o = out[b + c];
      o.mean = mean[c] * y_scale_ + y_mean_;
      o.variance = 0.0;
      if (with_variance) {
        const std::span<const double> point(pts + c * dim, dim);
        const double var_std =
            std::max(0.0, kernel_->eval(point, point) - sq[c]);
        o.variance = var_std * y_scale_ * y_scale_;
      }
    }
  }
}

double GaussianProcess::log_marginal_likelihood() const {
  if (!factor_) throw std::logic_error("GaussianProcess: LML before fit");
  const double fit_term = 0.5 * math::dot(targets_std_, alpha_);
  return -fit_term - 0.5 * factor_->log_det() -
         0.5 * static_cast<double>(targets_std_.size()) * kLog2Pi;
}

double GaussianProcess::noise_variance() const {
  return std::exp(log_noise_) * y_scale_ * y_scale_;
}

}  // namespace autodml::gp
