#include "gp/gp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace autodml::gp {

namespace {
constexpr double kLog2Pi = 1.8378770664093454836;

void clamp_to_bounds(std::span<double> x, std::span<const double> lo,
                     std::span<const double> hi) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::clamp(x[i], lo[i], hi[i]);
  }
}
}  // namespace

GaussianProcess::GaussianProcess(std::unique_ptr<Kernel> kernel,
                                 GpOptions options)
    : kernel_(std::move(kernel)),
      options_(options),
      log_noise_(std::log(options.initial_noise)) {
  if (!kernel_) throw std::invalid_argument("GaussianProcess: null kernel");
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

GaussianProcess::LmlResult GaussianProcess::negative_lml(
    std::span<const double> packed) const {
  if (lml_cache_ && lml_cache_->data_version == data_version_ &&
      lml_cache_->theta.size() == packed.size() &&
      std::equal(packed.begin(), packed.end(), lml_cache_->theta.begin())) {
    ADML_COUNT("gp.lml_cache_hits", 1);
    return lml_cache_->result;
  }
  ADML_COUNT("gp.lml_evals", 1);

  // Evaluate on a scratch clone so the public state stays untouched.
  auto k = kernel_->clone();
  k->set_hyperparams(packed.subspan(0, packed.size() - 1));
  const double noise_var = std::exp(packed.back());

  // One pass over the lower-triangle pairs fills the Gram matrix and, pair
  // by pair, the kernel-hyperparameter derivatives dK/dtheta (pair-major:
  // pair p = i(i+1)/2 + j holds n_kernel contiguous entries), which the
  // gradient loop below reads back in the same order.
  const std::size_t n = targets_std_.size();
  const std::size_t n_kernel = packed.size() - 1;
  math::Matrix gram(n, n);
  std::vector<double> dk(n * (n + 1) / 2 * n_kernel);
  for (std::size_t i = 0, p = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j, ++p) {
      const double v = k->eval_with_grad(
          x_.row(i), x_.row(j),
          std::span<double>(dk.data() + p * n_kernel, n_kernel));
      AUTODML_CHECK(std::isfinite(v),
                    "GP kernel produced non-finite value " +
                        std::to_string(v) + " for training pair (" +
                        std::to_string(i) + "," + std::to_string(j) + ")");
      gram(i, j) = v;
      gram(j, i) = v;
    }
    gram(i, i) += noise_var;
  }

  LmlResult out;
  out.grad.assign(packed.size(), 0.0);
  math::CholeskyFactor factor;
  try {
    factor = math::cholesky_with_jitter(gram);
  } catch (const std::runtime_error&) {
    out.value = 1e100;  // reject this hyperparameter point
    return out;
  }
  const math::Vec alpha = factor.solve(targets_std_);
  const double fit_term = 0.5 * math::dot(targets_std_, alpha);
  const double lml = -fit_term - 0.5 * factor.log_det() -
                     0.5 * static_cast<double>(n) * kLog2Pi;
  out.value = -lml;

  // Gradient: dLML/dtheta = 0.5 tr((alpha alpha^T - K^{-1}) dK/dtheta).
  // K^{-1} = L^{-T} L^{-1} from the triangular inverse of the existing
  // factor (~n^3/3 flops for inverse + symmetric product) instead of n
  // unit-vector solves (~2n^3). Only the lower half is needed: both W and
  // dK/dtheta are symmetric, so each off-diagonal pair contributes twice.
  // Row i of the transposed inverse is column i of L^{-1}, so each K^{-1}
  // entry sum_{kk>=i} L^{-1}(kk,i) L^{-1}(kk,j) walks two contiguous rows.
  const math::Matrix linv_t = factor.lower_inverse().transposed();
  for (std::size_t i = 0, p = 0; i < n; ++i) {
    const auto row_i = linv_t.row(i);
    for (std::size_t j = 0; j <= i; ++j, ++p) {
      const auto row_j = linv_t.row(j);
      double kinv_ij = 0.0;
      for (std::size_t kk = i; kk < n; ++kk) kinv_ij += row_i[kk] * row_j[kk];
      const double w = alpha[i] * alpha[j] - kinv_ij;
      const double pair_weight = (i == j) ? 1.0 : 2.0;
      const double* dk_ij = dk.data() + p * n_kernel;
      for (std::size_t t = 0; t < n_kernel; ++t) {
        out.grad[t] += -0.5 * pair_weight * w * dk_ij[t];  // negative LML
      }
      if (i == j) out.grad[n_kernel] += -0.5 * w * noise_var;
    }
  }
  lml_cache_ = LmlCache{math::Vec(packed.begin(), packed.end()),
                        data_version_, out};
  return out;
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
  if (options_.standardize_targets) {
    y_mean_ = util::mean(y);
    const double sd = util::stddev(y);
    y_scale_ = sd > 1e-12 ? sd : 1.0;
  } else {
    y_mean_ = 0.0;
    y_scale_ = 1.0;
  }
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
  if (options_.standardize_targets) {
    y_mean_ = util::mean(targets_raw_);
    const double sd = util::stddev(targets_raw_);
    y_scale_ = sd > 1e-12 ? sd : 1.0;
  }
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
  const auto objective_grad = [&](std::span<const double> theta,
                                  std::span<double> grad) {
    const LmlResult r = negative_lml(theta);
    std::copy(r.grad.begin(), r.grad.end(), grad.begin());
    return r.value;
  };
  // Nelder-Mead has no projection support; clamp inside the objective.
  const auto objective = [&](std::span<const double> theta) {
    math::Vec projected(theta.begin(), theta.end());
    clamp_to_bounds(projected, lo, hi);
    return negative_lml(projected).value;
  };

  math::AdamOptions adam_opts;
  adam_opts.max_iterations = options_.adam_iterations;
  adam_opts.lower_bounds = lo;
  adam_opts.upper_bounds = hi;

  math::Vec best_theta = packed_hypers();
  clamp_to_bounds(best_theta, lo, hi);
  double best_value = objective(best_theta);

  for (int restart = 0; restart <= options_.restarts; ++restart) {
    // Restart 0 warm-starts from the current hyperparameters.
    const math::Vec& start =
        restart == 0 ? best_theta
                     : plan->starts[static_cast<std::size_t>(restart - 1)];
    const auto result = math::adam(objective_grad, start, adam_opts);
    math::Vec candidate = result.x;
    clamp_to_bounds(candidate, lo, hi);
    const double value = objective(candidate);
    if (value < best_value) {
      best_value = value;
      best_theta = candidate;
    }
  }

  if (options_.polish_iterations > 0) {
    math::NelderMeadOptions nm;
    nm.max_iterations = options_.polish_iterations;
    nm.initial_step = 0.2;
    const auto polished = math::nelder_mead(objective, best_theta, nm);
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
