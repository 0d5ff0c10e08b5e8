// Generic numeric optimizers.
//
// Three consumers: GP hyperparameter fitting maximizes the log-marginal
// likelihood (Adam on analytic gradients, restarted, then polished with
// Nelder-Mead); learning-curve extrapolation fits power laws (Nelder-Mead);
// acquisition optimization uses its own mixed-space search in src/core.
#pragma once

#include <functional>

#include "math/matrix.h"
#include "util/rng.h"

namespace autodml::math {

/// Objective returning just a value (derivative-free methods).
using Objective = std::function<double(std::span<const double>)>;

/// Objective returning value and writing the gradient into `grad`.
using GradObjective =
    std::function<double(std::span<const double>, std::span<double> grad)>;

struct OptResult {
  Vec x;
  double value = 0.0;
  int iterations = 0;
  bool converged = false;
};

struct NelderMeadOptions {
  int max_iterations = 500;
  double initial_step = 0.5;   // simplex edge length
  double f_tolerance = 1e-9;   // stop when simplex f-spread below this
  double x_tolerance = 1e-9;   // stop when simplex x-spread below this
};

/// Minimize f starting from x0 (Nelder-Mead downhill simplex).
OptResult nelder_mead(const Objective& f, std::span<const double> x0,
                      const NelderMeadOptions& options = {});

struct AdamOptions {
  int max_iterations = 200;
  double learning_rate = 0.05;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double grad_tolerance = 1e-6;  // stop when ||grad||_inf below this
  /// Optional box constraints. When non-empty (each sized like x0), the
  /// start point and every Adam iterate are projected onto
  /// [lower_bounds, upper_bounds], so the objective and its gradient are
  /// only ever evaluated at feasible points — an unprojected iterate
  /// drifting out of bounds would keep receiving the stale boundary
  /// gradient while its distance from the feasible box grows.
  Vec lower_bounds;
  Vec upper_bounds;
};

/// Minimize f starting from x0 (projected Adam on the provided analytic
/// gradient). Non-finite objective evaluations contribute a zero gradient
/// to the moment estimates (momentum decays but is never NaN-poisoned).
OptResult adam(const GradObjective& f, std::span<const double> x0,
               const AdamOptions& options = {});

/// Central-difference numerical gradient (for tests and fallbacks).
Vec numerical_gradient(const Objective& f, std::span<const double> x,
                       double h = 1e-6);

}  // namespace autodml::math
