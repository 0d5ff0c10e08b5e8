#include "math/optimize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace autodml::math {

OptResult nelder_mead(const Objective& f, std::span<const double> x0,
                      const NelderMeadOptions& options) {
  const std::size_t n = x0.size();
  if (n == 0) throw std::invalid_argument("nelder_mead: empty start point");

  // Standard coefficients.
  constexpr double kReflect = 1.0;
  constexpr double kExpand = 2.0;
  constexpr double kContract = 0.5;
  constexpr double kShrink = 0.5;

  std::vector<Vec> simplex;
  simplex.reserve(n + 1);
  simplex.emplace_back(x0.begin(), x0.end());
  for (std::size_t i = 0; i < n; ++i) {
    Vec v(x0.begin(), x0.end());
    v[i] += options.initial_step;
    simplex.push_back(std::move(v));
  }
  std::vector<double> fv(n + 1);
  for (std::size_t i = 0; i <= n; ++i) fv[i] = f(simplex[i]);

  OptResult result;
  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    // Order simplex by function value.
    std::vector<std::size_t> order(n + 1);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return fv[a] < fv[b]; });
    const std::size_t best = order[0];
    const std::size_t worst = order[n];
    const std::size_t second_worst = order[n - 1];

    // Convergence: spread in f and in x.
    const double f_spread = std::abs(fv[worst] - fv[best]);
    double x_spread = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x_spread = std::max(x_spread,
                          std::abs(simplex[worst][i] - simplex[best][i]));
    }
    if (f_spread < options.f_tolerance && x_spread < options.x_tolerance) {
      result.converged = true;
      break;
    }

    // Centroid of all but worst.
    Vec centroid(n, 0.0);
    for (std::size_t k = 0; k <= n; ++k) {
      if (k == worst) continue;
      axpy(1.0, simplex[k], centroid);
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    const auto point_along = [&](double coeff) {
      Vec p(n);
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = centroid[i] + coeff * (centroid[i] - simplex[worst][i]);
      }
      return p;
    };

    Vec reflected = point_along(kReflect);
    const double f_reflected = f(reflected);
    if (f_reflected < fv[best]) {
      Vec expanded = point_along(kExpand);
      const double f_expanded = f(expanded);
      if (f_expanded < f_reflected) {
        simplex[worst] = std::move(expanded);
        fv[worst] = f_expanded;
      } else {
        simplex[worst] = std::move(reflected);
        fv[worst] = f_reflected;
      }
      continue;
    }
    if (f_reflected < fv[second_worst]) {
      simplex[worst] = std::move(reflected);
      fv[worst] = f_reflected;
      continue;
    }
    // Contraction (outside if reflected beats worst, else inside).
    const bool outside = f_reflected < fv[worst];
    Vec contracted = point_along(outside ? kContract : -kContract);
    const double f_contracted = f(contracted);
    if (f_contracted < std::min(f_reflected, fv[worst])) {
      simplex[worst] = std::move(contracted);
      fv[worst] = f_contracted;
      continue;
    }
    // Shrink toward best.
    for (std::size_t k = 0; k <= n; ++k) {
      if (k == best) continue;
      for (std::size_t i = 0; i < n; ++i) {
        simplex[k][i] =
            simplex[best][i] + kShrink * (simplex[k][i] - simplex[best][i]);
      }
      fv[k] = f(simplex[k]);
    }
  }

  const auto best_it = std::min_element(fv.begin(), fv.end());
  result.x = simplex[static_cast<std::size_t>(best_it - fv.begin())];
  result.value = *best_it;
  result.iterations = iter;
  return result;
}

OptResult adam(const GradObjective& f, std::span<const double> x0,
               const AdamOptions& options) {
  const std::size_t n = x0.size();
  const bool bounded =
      !options.lower_bounds.empty() || !options.upper_bounds.empty();
  if (bounded && (options.lower_bounds.size() != n ||
                  options.upper_bounds.size() != n)) {
    throw std::invalid_argument("adam: bounds/start size mismatch");
  }
  const auto project = [&](Vec& p) {
    if (!bounded) return;
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = std::clamp(p[i], options.lower_bounds[i], options.upper_bounds[i]);
    }
  };

  Vec x(x0.begin(), x0.end());
  project(x);
  Vec m(n, 0.0), v(n, 0.0), grad(n, 0.0);
  OptResult result;
  result.x = x;
  result.value = f(x, grad);

  Vec best_x = x;
  double best_f = std::isfinite(result.value)
                      ? result.value
                      : std::numeric_limits<double>::infinity();
  // Whether the evaluation that produced `grad` returned a finite value; a
  // non-finite objective makes its gradient meaningless, and feeding it into
  // the moment estimates would poison m/v with NaN for every later step.
  bool grad_valid = std::isfinite(result.value);

  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    if (grad_valid) {
      double grad_inf = 0.0;
      for (double g : grad) grad_inf = std::max(grad_inf, std::abs(g));
      if (grad_inf < options.grad_tolerance) {
        result.converged = true;
        break;
      }
    }
    // Bias corrections of this step, shared by every coordinate.
    const double t = static_cast<double>(iter + 1);
    const double m_correction = 1.0 - std::pow(options.beta1, t);
    const double v_correction = 1.0 - std::pow(options.beta2, t);
    for (std::size_t i = 0; i < n; ++i) {
      // On an invalid evaluation the gradient contribution is zero: the
      // moments decay and the iterate coasts on momentum out of the bad
      // region instead of freezing or going NaN.
      const double g = grad_valid ? grad[i] : 0.0;
      m[i] = options.beta1 * m[i] + (1.0 - options.beta1) * g;
      v[i] = options.beta2 * v[i] + (1.0 - options.beta2) * g * g;
      const double m_hat = m[i] / m_correction;
      const double v_hat = v[i] / v_correction;
      x[i] -= options.learning_rate * m_hat /
              (std::sqrt(v_hat) + options.epsilon);
    }
    project(x);
    const double fx = f(x, grad);
    grad_valid = std::isfinite(fx);
    if (grad_valid && fx < best_f) {
      best_f = fx;
      best_x = x;
    }
  }
  result.x = std::move(best_x);
  result.value = best_f;
  result.iterations = iter;
  return result;
}

Vec numerical_gradient(const Objective& f, std::span<const double> x,
                       double h) {
  Vec grad(x.size(), 0.0);
  Vec probe(x.begin(), x.end());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double orig = probe[i];
    probe[i] = orig + h;
    const double fp = f(probe);
    probe[i] = orig - h;
    const double fm = f(probe);
    probe[i] = orig;
    grad[i] = (fp - fm) / (2.0 * h);
  }
  return grad;
}

}  // namespace autodml::math
