// Common interface for surrogate regression backends.
//
// The tuner's surrogate stack has two interchangeable backends: the exact
// GaussianProcess (O(n^3) fit, O(n^2) incremental append) and the
// random-Fourier-feature RffRegressor (O(n m^2 + m^3), m fixed), selected
// by SurrogateModel past a trial-count threshold. Both expose the same
// posterior surface — predict() returns the latent mean/variance in raw
// target units — so acquisition code never knows which backend is live.
#pragma once

#include <span>
#include <stdexcept>

#include "gp/kernel.h"
#include "math/matrix.h"
#include "util/rng.h"

namespace autodml::gp {

struct GpPrediction {
  double mean = 0.0;
  double variance = 0.0;  // latent (noise-free) predictive variance
};

class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Fit on rows of X (n x dim) with targets y (n), optimizing
  /// hyperparameters when the backend's options allow it.
  virtual void fit(const math::Matrix& x, std::span<const double> y,
                   util::Rng& rng) = 0;

  /// Replace the data but keep current hyperparameters (cheap refit used
  /// between full re-optimizations).
  virtual void refit(const math::Matrix& x, std::span<const double> y) = 0;

  /// Take from rng exactly the draws fit() on n points would take, and
  /// nothing else: the model is left as it is. A caller that skips a fit
  /// nobody reads calls this so later fits sharing rng see the same stream.
  virtual void skip_fit(std::size_t n, util::Rng& rng) const = 0;

  /// Incremental update: append one observation without refitting from
  /// scratch. Hyperparameters are kept; the resulting posterior is
  /// identical to refit() on the extended data. Requires is_fitted().
  /// Returns true when the backend's fast path was taken.
  virtual bool append_observation(std::span<const double> x, double y) = 0;

  virtual bool is_fitted() const = 0;
  virtual std::size_t num_points() const = 0;

  virtual GpPrediction predict(std::span<const double> x) const = 0;

  /// predict() at each of out.size() points, stored row-major in `xs`
  /// (out.size() rows of the kernel's input dimension), bit for bit. With
  /// `with_variance = false` only the means are computed and every
  /// out[i].variance is 0. The default calls predict() point by point.
  virtual void predict_batch(std::span<const double> xs,
                             std::span<GpPrediction> out,
                             bool with_variance) const;

  /// Log marginal likelihood of the current fit (standardized target
  /// units; for approximate backends, of the approximate model).
  virtual double log_marginal_likelihood() const = 0;

  /// Fitted noise variance, in *raw* target units.
  virtual double noise_variance() const = 0;

  /// The kernel whose hyperparameters the backend carries (exact covariance
  /// for GaussianProcess, the approximated one for RFF). ARD relevance is
  /// read through this.
  virtual const Kernel& kernel() const = 0;

  /// Static-lifetime backend tag for metrics and span args.
  virtual const char* backend_name() const = 0;
};

inline void Regressor::predict_batch(std::span<const double> xs,
                                     std::span<GpPrediction> out,
                                     bool with_variance) const {
  const std::size_t dim = kernel().input_dim();
  if (xs.size() != out.size() * dim)
    throw std::invalid_argument("predict_batch: size mismatch");
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = predict(xs.subspan(i * dim, dim));
    if (!with_variance) out[i].variance = 0.0;
  }
}

}  // namespace autodml::gp
