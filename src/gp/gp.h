// Exact Gaussian-process regression.
//
// The tuner's surrogate. Targets are standardized internally; the noise
// variance is a hyperparameter fitted jointly with the kernel's by maximizing
// the log marginal likelihood (analytic gradients + multi-start Adam, with a
// Nelder-Mead polish that evaluates the likelihood value only, without the
// gradient's dK, L^{-1} and K^{-1}). History sizes in configuration tuning
// are usually small (tens to a few hundred points), where exact O(n^3)
// inference is the right trade-off; past the SurrogateModel threshold the
// stack switches to the random-Fourier-feature approximation in rff.h.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "gp/kernel.h"
#include "gp/regressor.h"
#include "math/cholesky.h"
#include "math/matrix.h"
#include "math/optimize.h"
#include "util/rng.h"

namespace autodml::gp {

struct GpOptions {
  bool optimize_hyperparams = true;
  int restarts = 2;             // additional random restarts beyond current
  int adam_iterations = 120;
  int polish_iterations = 80;   // Nelder-Mead after the best Adam run
  double noise_lo = 1e-8;       // bounds for the noise-variance hyperparameter
  double noise_hi = 1.0;        //   (in standardized target units)
  double initial_noise = 1e-2;
};

/// Divisor that standardizes targets `y` (after centering on their mean):
/// their sample standard deviation, or 1 when they are numerically constant.
double target_scale(std::span<const double> y);

class GaussianProcess final : public Regressor {
 public:
  /// Throws std::invalid_argument unless `kernel` derives from
  /// ArdKernelBase (the likelihood evaluates it in batches).
  GaussianProcess(std::unique_ptr<Kernel> kernel, GpOptions options = {});

  GaussianProcess(const GaussianProcess& other);
  GaussianProcess& operator=(const GaussianProcess&) = delete;

  /// Fit on rows of X (n x dim) with targets y (n). Optimizes
  /// hyperparameters unless disabled, then factorizes.
  void fit(const math::Matrix& x, std::span<const double> y,
           util::Rng& rng) override;

  /// Replace the data but keep current hyperparameters (cheap refit used
  /// between full re-optimizations).
  void refit(const math::Matrix& x, std::span<const double> y) override;

  void skip_fit(std::size_t n, util::Rng& rng) const override;

  /// Incremental update: append one observation, extending the existing
  /// Cholesky factor in O(n^2) instead of refactorizing (O(n^3)).
  /// Hyperparameters are kept; the resulting posterior is identical to
  /// refit() on the extended data. Requires is_fitted(). Returns true when
  /// the O(n^2) fast path was taken; false when the extended Gram matrix was
  /// not PD at the stored jitter and a full refactorization ran instead
  /// (the model is consistent either way). In AUTODML_CHECKED builds the
  /// incremental factor is cross-verified against a from-scratch
  /// factorization of the same jittered Gram matrix.
  bool append_observation(std::span<const double> x, double y) override;

  bool is_fitted() const override { return factor_.has_value(); }
  std::size_t num_points() const override { return targets_raw_.size(); }

  GpPrediction predict(std::span<const double> x) const override;

  /// Points per block of predict_batch: its scratch holds O(block * n)
  /// doubles.
  static constexpr std::size_t kPredictBlock = 32;

  /// Blocks of kPredictBlock points: k(x_i, c) for the whole block in one
  /// dimension-major pass (ArdKernelBase::eval_cross), then per point the
  /// mean dot(k*, alpha) and, with the variance, the forward substitution
  /// L v = k*, every point's entries in predict()'s order.
  void predict_batch(std::span<const double> xs, std::span<GpPrediction> out,
                     bool with_variance) const override;

  /// Log marginal likelihood of the current fit (standardized target units).
  double log_marginal_likelihood() const override;

  /// Fitted noise variance, in *raw* target units.
  double noise_variance() const override;

  const Kernel& kernel() const override { return *kernel_; }
  const char* backend_name() const override { return "exact"; }

  struct LmlResult {
    double value;
    math::Vec grad;  // w.r.t. [kernel log-hypers..., log noise]
  };

  /// Negative LML and analytic gradient at the given packed
  /// log-hyperparameters [kernel..., log noise], on the current training
  /// data. Public as a diagnostic/testing surface (gradient checks); the
  /// result is memoized per (theta, data) so the hyperopt loop's repeated
  /// evaluations at boundary-projected iterates are free. A point whose
  /// Gram matrix is not PD even with jitter is rejected: value 1e100, zero
  /// gradient, not memoized.
  // Test surface: tests/gp_test.cpp
  LmlResult negative_lml(std::span<const double> packed) const;

  /// The value of negative_lml(packed), bit for bit, without building the
  /// gradient: what the Nelder-Mead polish evaluates. Shares the memo, but
  /// the value-only entry it leaves never serves a gradient request.
  // Test surface: tests/gp_test.cpp
  double negative_lml_value(std::span<const double> packed) const;

 private:
  /// Scratch for likelihood evaluations on one training set: the pair
  /// differences, which do not depend on theta, and every buffer an
  /// evaluation writes. fit() builds one per hyperopt round; the public
  /// negative_lml calls build a temporary one.
  struct LmlWorkspace;

  /// Memoized negative LML at `packed`, writing the gradient to `grad`
  /// (size packed.size()) unless it is empty.
  double evaluate_nlml(std::span<const double> packed, LmlWorkspace& ws,
                       std::span<double> grad) const;

  /// Bounds and random restart starts of one hyperopt round, packed
  /// [kernel log-hypers..., log noise].
  struct HyperoptPlan {
    math::Vec lo, hi;
    std::vector<math::Vec> starts;  // restarts 1..options_.restarts
  };
  /// The plan fit() on n points runs, with every restart start drawn from
  /// rng up front in restart order; nullopt, with no draw taken, when that
  /// fit runs no hyperopt. The only rng use in fit(), shared by skip_fit().
  std::optional<HyperoptPlan> plan_hyperopt(std::size_t n,
                                            util::Rng& rng) const;

  /// The kernel, checked to be ARD at construction.
  const ArdKernelBase& ard() const {
    return static_cast<const ArdKernelBase&>(*kernel_);
  }

  void factorize();
  math::Vec packed_hypers() const;
  void apply_packed(std::span<const double> packed);

  std::unique_ptr<Kernel> kernel_;
  GpOptions options_;
  double log_noise_;

  math::Matrix x_;
  math::Vec targets_raw_;
  math::Vec targets_std_;  // standardized
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;

  std::optional<math::CholeskyFactor> factor_;
  math::Vec alpha_;  // (K + sigma^2 I)^{-1} y_std

  /// Bumped whenever the training set changes; keys the negative_lml memo.
  std::uint64_t data_version_ = 0;
  struct LmlCache {
    math::Vec theta;
    std::uint64_t data_version = 0;
    bool has_grad = false;  // false: a value-only entry
    double value = 0.0;
    math::Vec grad;  // empty unless has_grad
  };
  /// Last accepted likelihood evaluation. The hyperopt loop evaluates the
  /// same theta repeatedly (value+grad pairs, boundary-projected iterates,
  /// the post-Adam re-evaluation), all sharing the same X — one memo slot
  /// eliminates the duplicated Gram build + factorization. A value request
  /// takes either kind of entry; a gradient request takes only an entry
  /// with has_grad.
  mutable std::optional<LmlCache> lml_cache_;
};

}  // namespace autodml::gp
