#include "gp/rff.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "gp/gp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/stats.h"

namespace autodml::gp {

namespace {
constexpr double kLog2Pi = 1.8378770664093454836;
}  // namespace

RffRegressor::RffRegressor(std::unique_ptr<Kernel> kernel, RffOptions options,
                           std::uint64_t feature_seed)
    : kernel_(std::move(kernel)),
      options_(options),
      log_noise_(std::log(options.gp.initial_noise)) {
  if (!kernel_) throw std::invalid_argument("RffRegressor: null kernel");
  ard_ = dynamic_cast<const ArdKernelBase*>(kernel_.get());
  if (ard_ == nullptr) {
    throw std::invalid_argument(
        "RffRegressor: kernel must derive from ArdKernelBase");
  }
  if (options_.num_features <= 0 || options_.num_features % 2 != 0) {
    throw std::invalid_argument(
        "RffRegressor: num_features must be positive and even");
  }
  m_ = static_cast<std::size_t>(options_.num_features);
  const std::size_t freqs = m_ / 2;
  const std::size_t d = kernel_->input_dim();

  // Base spectral draws, in a fixed order so the model is a deterministic
  // function of the seed: z row by row, then the chi-squared draws.
  util::Rng rng(feature_seed);
  base_z_.resize(freqs * d);
  for (double& z : base_z_) z = rng.normal();
  base_q_.resize(freqs);
  for (double& q : base_q_) {
    double acc = 0.0;
    for (int k = 0; k < 5; ++k) {
      const double u = rng.normal();
      acc += u * u;
    }
    q = std::max(acc, 1e-12);
  }
  rebuild_omega();
}

void RffRegressor::rebuild_omega() {
  const std::size_t d = kernel_->input_dim();
  const std::size_t freqs = m_ / 2;
  const std::span<const double> ls = ard_->lengthscales();
  // Matern-5/2's spectral measure is multivariate-t with 5 dof (scale by
  // sqrt(5/q), q ~ chi^2_5); the SE measure is plain Gaussian.
  const bool matern = dynamic_cast<const Matern52Ard*>(kernel_.get()) != nullptr;
  omega_.resize(freqs * d);
  for (std::size_t j = 0; j < freqs; ++j) {
    const double scale = matern ? std::sqrt(5.0 / base_q_[j]) : 1.0;
    for (std::size_t dd = 0; dd < d; ++dd) {
      omega_[j * d + dd] = base_z_[j * d + dd] * scale / ls[dd];
    }
  }
}

math::Vec RffRegressor::phi_row(std::span<const double> x) const {
  const std::size_t d = kernel_->input_dim();
  const std::size_t freqs = m_ / 2;
  // sqrt(s²/(m/2)) per sin/cos pair: φ(a)^Tφ(b) averages cos(ω^T(a-b))
  // over the m/2 frequencies, scaled to the signal variance.
  const double amp =
      std::sqrt(2.0 * ard_->signal_variance() / static_cast<double>(m_));
  math::Vec phi(m_);
  for (std::size_t j = 0; j < freqs; ++j) {
    const double* w = omega_.data() + j * d;
    double arg = 0.0;
    for (std::size_t dd = 0; dd < d; ++dd) arg += w[dd] * x[dd];
    phi[2 * j] = amp * std::cos(arg);
    phi[2 * j + 1] = amp * std::sin(arg);
  }
  return phi;
}

math::Vec RffRegressor::features(std::span<const double> x) const {
  if (x.size() != kernel_->input_dim())
    throw std::invalid_argument("RffRegressor: input dimension mismatch");
  return phi_row(x);
}

void RffRegressor::solve_feature_system() {
  math::Matrix a = ata_;
  a.add_to_diagonal(std::exp(log_noise_));
  factor_ = math::cholesky_with_jitter(a);
  weights_ = factor_->solve(phi_ty_);
}

void RffRegressor::refit(const math::Matrix& x, std::span<const double> y) {
  ADML_SPAN("gp.rff_solve", "n", static_cast<std::int64_t>(x.rows()), "m",
            static_cast<std::int64_t>(m_));
  if (x.rows() != y.size())
    throw std::invalid_argument("RffRegressor: X/y size mismatch");
  if (x.rows() == 0)
    throw std::invalid_argument("RffRegressor: empty training set");
  if (x.cols() != kernel_->input_dim())
    throw std::invalid_argument("RffRegressor: input dimension mismatch");
  math::check_finite(x.data(), "RFF training inputs");
  math::check_finite(y, "RFF training targets");
  x_ = x;
  targets_raw_.assign(y.begin(), y.end());
  if (options_.gp.standardize_targets) {
    y_mean_ = util::mean(y);
    const double sd = util::stddev(y);
    y_scale_ = sd > 1e-12 ? sd : 1.0;
  } else {
    y_mean_ = 0.0;
    y_scale_ = 1.0;
  }
  const std::size_t n = y.size();
  targets_std_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    targets_std_[i] = (y[i] - y_mean_) / y_scale_;
  }

  rebuild_omega();
  phi_.resize(n * m_);
  for (std::size_t t = 0; t < n; ++t) {
    const math::Vec row = phi_row(x_.row(t));
    std::copy(row.begin(), row.end(), phi_.begin() + t * m_);
  }

  // A = Φ^T Φ accumulated over rows in ascending order — the exact order
  // append_observation() extends, so append == refit bit-for-bit.
  ata_ = math::Matrix(m_, m_);
  phi_ty_.assign(m_, 0.0);
  yty_ = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    const double* row = phi_.data() + t * m_;
    for (std::size_t i = 0; i < m_; ++i) {
      const double ri = row[i];
      double* out = ata_.row(i).data();
      for (std::size_t j = 0; j <= i; ++j) out[j] += ri * row[j];
      phi_ty_[i] += ri * targets_std_[t];
    }
    yty_ += targets_std_[t] * targets_std_[t];
  }
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t j = i + 1; j < m_; ++j) ata_(i, j) = ata_(j, i);
  }
  solve_feature_system();
}

bool RffRegressor::append_observation(std::span<const double> x, double y) {
  ADML_SPAN("gp.rff_append", "n",
            static_cast<std::int64_t>(targets_raw_.size()), "m",
            static_cast<std::int64_t>(m_));
  if (!factor_)
    throw std::logic_error("RffRegressor: append_observation before fit");
  if (x.size() != kernel_->input_dim())
    throw std::invalid_argument("RffRegressor: input dimension mismatch");
  math::check_finite(x, "RFF appended input");
  if (!std::isfinite(y))
    throw std::invalid_argument("RffRegressor: non-finite target");

  const std::size_t n = targets_raw_.size();
  math::Matrix xe(n + 1, x_.cols());
  std::copy(x_.data().begin(), x_.data().end(), xe.data().begin());
  std::copy(x.begin(), x.end(), xe.row(n).begin());
  x_ = std::move(xe);
  targets_raw_.push_back(y);

  // Standardization statistics shift with the new target, so the whole
  // standardized vector and every y-dependent reduction is recomputed —
  // O(n m), still far below the O(n m²) feature rebuild this path avoids.
  if (options_.gp.standardize_targets) {
    y_mean_ = util::mean(targets_raw_);
    const double sd = util::stddev(targets_raw_);
    y_scale_ = sd > 1e-12 ? sd : 1.0;
  }
  targets_std_.resize(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    targets_std_[i] = (targets_raw_[i] - y_mean_) / y_scale_;
  }

  const math::Vec row = phi_row(x);
  phi_.insert(phi_.end(), row.begin(), row.end());
  // Rank-1 update of A: appends the t = n term to each entry's running sum,
  // matching refit()'s ascending accumulation order exactly.
  for (std::size_t i = 0; i < m_; ++i) {
    const double ri = row[i];
    double* out = ata_.row(i).data();
    for (std::size_t j = 0; j <= i; ++j) out[j] += ri * row[j];
  }
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t j = i + 1; j < m_; ++j) ata_(i, j) = ata_(j, i);
  }
  phi_ty_.assign(m_, 0.0);
  yty_ = 0.0;
  for (std::size_t t = 0; t <= n; ++t) {
    const double* prow = phi_.data() + t * m_;
    for (std::size_t i = 0; i < m_; ++i) phi_ty_[i] += prow[i] * targets_std_[t];
    yty_ += targets_std_[t] * targets_std_[t];
  }

#if AUTODML_CHECKED_ENABLED
  // The bit-equality contract of the rank-1 path: A must equal the
  // from-scratch ascending accumulation over the stored feature rows.
  {
    math::Matrix full(m_, m_);
    for (std::size_t t = 0; t <= n; ++t) {
      const double* prow = phi_.data() + t * m_;
      for (std::size_t i = 0; i < m_; ++i) {
        const double ri = prow[i];
        double* out = full.row(i).data();
        for (std::size_t j = 0; j <= i; ++j) out[j] += ri * prow[j];
      }
    }
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        AUTODML_CHECK(full(i, j) == ata_(i, j),
                      "RFF rank-1 feature-Gram update diverged from the "
                      "from-scratch accumulation at (" + std::to_string(i) +
                          "," + std::to_string(j) + ")");
      }
    }
  }
#endif

  solve_feature_system();
  ADML_COUNT("gp.rff_append_fast", 1);
  return true;
}

std::size_t RffRegressor::hyperopt_subset_size(std::size_t n) const {
  if (!options_.gp.optimize_hyperparams || options_.hyperopt_subset <= 0 ||
      n < 3) {
    return 0;
  }
  return std::min<std::size_t>(
      n, static_cast<std::size_t>(options_.hyperopt_subset));
}

void RffRegressor::skip_fit(std::size_t n, util::Rng& rng) const {
  if (const std::size_t s = hyperopt_subset_size(n); s > 0) {
    GaussianProcess(kernel_->clone(), options_.gp).skip_fit(s, rng);
  }
}

void RffRegressor::fit(const math::Matrix& x, std::span<const double> y,
                       util::Rng& rng) {
  ADML_SPAN("gp.rff_fit", "n", static_cast<std::int64_t>(x.rows()), "m",
            static_cast<std::int64_t>(m_));
  const std::size_t n = x.rows();
  if (const std::size_t s = hyperopt_subset_size(n); s > 0) {
    ADML_COUNT("gp.rff_hyperopt_rounds", 1);
    // Exact-GP marginal likelihood on an evenly-strided subset: reuses the
    // well-tested hyperopt machinery at O(s³) instead of deriving an RFF
    // objective. The stride keeps early and late trials represented.
    math::Matrix xs(s, x.cols());
    math::Vec ys(s);
    for (std::size_t i = 0; i < s; ++i) {
      const std::size_t src = i * n / s;
      std::copy(x.row(src).begin(), x.row(src).end(), xs.row(i).begin());
      ys[i] = y[src];
    }
    GaussianProcess subset_gp(kernel_->clone(), options_.gp);
    subset_gp.fit(xs, ys, rng);
    kernel_->set_hyperparams(subset_gp.kernel().hyperparams());
    // The subset GP's noise is in raw target units; ours lives in
    // full-data-standardized units.
    double y_scale = 1.0;
    if (options_.gp.standardize_targets) {
      const double sd = util::stddev(y);
      y_scale = sd > 1e-12 ? sd : 1.0;
    }
    const double noise_std_units = std::clamp(
        subset_gp.noise_variance() / (y_scale * y_scale),
        options_.gp.noise_lo, options_.gp.noise_hi);
    log_noise_ = std::log(noise_std_units);
  }
  refit(x, y);

#if AUTODML_CHECKED_ENABLED
  // Accuracy cross-check against the exact GP at the same hyperparameters:
  // posterior mean within the exact model's own uncertainty plus an RFF
  // approximation allowance, variance within a constant factor. Gated to
  // sizes where the O(n³) reference stays cheap.
  if (n >= 8 && n <= 512) {
    GpOptions exact_opts = options_.gp;
    exact_opts.optimize_hyperparams = false;
    exact_opts.initial_noise = std::exp(log_noise_);
    GaussianProcess exact(kernel_->clone(), exact_opts);
    exact.refit(x, y);
    // Held-out probes in the data's bounding box, seeded independently of
    // everything the tuner consumes.
    util::Rng probe_rng(0x52464643484bULL);  // "RFFCHK"
    const std::size_t d = x.cols();
    math::Vec lo(d, 0.0), hi(d, 0.0), probe(d, 0.0);
    for (std::size_t dd = 0; dd < d; ++dd) {
      lo[dd] = hi[dd] = x(0, dd);
      for (std::size_t i = 1; i < n; ++i) {
        lo[dd] = std::min(lo[dd], x(i, dd));
        hi[dd] = std::max(hi[dd], x(i, dd));
      }
    }
    // Tolerance: the O(1/sqrt(m)) feature-approximation term plus the
    // exact model's own predictive uncertainty, in standardized units.
    // The m-feature model is a fixed-capacity regression, so against a
    // near-noiseless smooth target its posterior mean carries an
    // irreducible basis-approximation floor (~0.4 std units at m=256 on
    // the bench response); the bound is set above that floor and catches
    // gross errors (wrong spectral measure, sign flips, broken solves),
    // which show up as multi-std-unit divergence. The mean over probes is
    // gated tightly, individual probes at 3x.
    double err_sum = 0.0;
    double sd_sum = 0.0;
    constexpr int kProbes = 8;
    math::Vec errs(kProbes, 0.0);
    for (int probe_i = 0; probe_i < kProbes; ++probe_i) {
      for (std::size_t dd = 0; dd < d; ++dd) {
        probe[dd] = probe_rng.uniform(lo[dd], hi[dd]);
      }
      const GpPrediction pe = exact.predict(probe);
      const GpPrediction pr = predict(probe);
      errs[probe_i] = std::abs(pr.mean - pe.mean) / y_scale_;
      err_sum += errs[probe_i];
      sd_sum +=
          std::sqrt(std::max(pe.variance + exact.noise_variance(), 0.0)) /
          y_scale_;
    }
    const double allowance = 12.0 / std::sqrt(static_cast<double>(m_)) +
                             sd_sum / kProbes + 0.1;
    AUTODML_CHECK(err_sum / kProbes <= allowance,
                  "RFF posterior mean diverges from exact GP by " +
                      std::to_string(err_sum / kProbes) +
                      " standardized units on average (allowance " +
                      std::to_string(allowance) + ")");
    for (int probe_i = 0; probe_i < kProbes; ++probe_i) {
      AUTODML_CHECK(errs[probe_i] <= 3.0 * allowance,
                    "RFF posterior mean diverges from exact GP by " +
                        std::to_string(errs[probe_i]) +
                        " standardized units at a single probe (cap " +
                        std::to_string(3.0 * allowance) + ")");
    }
  }
#endif
}

GpPrediction RffRegressor::predict(std::span<const double> x) const {
  if (!factor_) throw std::logic_error("RffRegressor: predict before fit");
  math::check_finite(x, "RFF prediction input");
  if (x.size() != kernel_->input_dim())
    throw std::invalid_argument("RffRegressor: input dimension mismatch");
  const math::Vec phi = phi_row(x);
  const double mean_std = math::dot(phi, weights_);
  // Posterior covariance of the weights is σ² A^{-1}; latent variance at x
  // is σ² φ^T A^{-1} φ = σ² ||L^{-1} φ||².
  const math::Vec v = factor_->solve_lower(phi);
  const double var_std = std::exp(log_noise_) * math::dot(v, v);
  GpPrediction out;
  out.mean = mean_std * y_scale_ + y_mean_;
  out.variance = std::max(0.0, var_std) * y_scale_ * y_scale_;
  return out;
}

double RffRegressor::log_marginal_likelihood() const {
  if (!factor_) throw std::logic_error("RffRegressor: LML before fit");
  const std::size_t n = targets_std_.size();
  const double noise_var = std::exp(log_noise_);
  // Woodbury identities against A = Φ^TΦ + σ²I:
  //   y^T K̃^{-1} y = (y^T y − (Φ^T y)^T w̄) / σ²
  //   log|K̃|      = log|A| − m log σ² + n log σ²
  const double fit_term =
      0.5 * (yty_ - math::dot(phi_ty_, weights_)) / noise_var;
  const double log_det = factor_->log_det() -
                         static_cast<double>(m_) * std::log(noise_var) +
                         static_cast<double>(n) * std::log(noise_var);
  return -fit_term - 0.5 * log_det -
         0.5 * static_cast<double>(n) * kLog2Pi;
}

double RffRegressor::noise_variance() const {
  return std::exp(log_noise_) * y_scale_ * y_scale_;
}

}  // namespace autodml::gp
