#include "ml/curve_fit.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "math/optimize.h"

namespace autodml::ml {

namespace {

// Parameter packing for the optimizer (all unconstrained):
//   theta[0] = logit-ish ceiling via c = max_m + softplus(theta0) * range
//   theta[1] = log half-life
//   theta[2] = log gamma
//   theta[3] = m0 (fitted floor)
double softplus(double x) {
  if (x > 30.0) return x;
  return std::log1p(std::exp(x));
}

struct Packed {
  double ceiling, h, g, m0;
};

Packed unpack(std::span<const double> theta, double max_m, double range) {
  Packed p;
  p.ceiling = max_m + softplus(theta[0]) * range * 0.5 + 1e-6;
  p.h = std::exp(theta[1]);
  p.g = std::exp(theta[2]);
  p.m0 = theta[3];
  return p;
}

double model(const Packed& p, double s) {
  return p.ceiling - (p.ceiling - p.m0) * std::pow(1.0 + s / p.h, -p.g);
}

}  // namespace

CurveFitResult fit_learning_curve(std::span<const double> samples,
                                  std::span<const double> metric) {
  CurveFitResult out;
  if (samples.size() != metric.size() || samples.size() < 4) return out;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if (samples[i] <= samples[i - 1]) return out;
  }

  const double min_m = *std::min_element(metric.begin(), metric.end());
  const double max_m = *std::max_element(metric.begin(), metric.end());
  const double range = std::max(1e-6, max_m - min_m);
  const double max_s = samples.back();

  const auto objective = [&](std::span<const double> theta) {
    const Packed p = unpack(theta, max_m, range);
    double sse = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const double err = model(p, samples[i]) - metric[i];
      sse += err * err;
    }
    return sse;
  };

  // Multi-start over plausible half-lives; the surface has local minima.
  math::NelderMeadOptions nm;
  nm.max_iterations = 400;
  nm.initial_step = 0.4;
  double best = std::numeric_limits<double>::infinity();
  math::Vec best_theta;
  for (const double h0 : {max_s * 0.1, max_s * 0.5, max_s * 2.0}) {
    const math::Vec start = {0.0, std::log(h0), std::log(1.2), min_m};
    const auto result = math::nelder_mead(objective, start, nm);
    if (result.value < best) {
      best = result.value;
      best_theta = result.x;
    }
  }
  if (best_theta.empty() || !std::isfinite(best)) return out;

  const Packed p = unpack(best_theta, max_m, range);
  out.ok = true;
  out.ceiling = p.ceiling;
  out.half_life = p.h;
  out.gamma = p.g;
  out.m0 = p.m0;
  out.rmse = std::sqrt(best / static_cast<double>(samples.size()));
  return out;
}

double predict_samples_to_reach(const CurveFitResult& fit, double target) {
  if (!fit.ok) throw std::logic_error("predict: fit not ok");
  if (target >= fit.ceiling) return std::numeric_limits<double>::infinity();
  if (target <= fit.m0) return 0.0;
  // Invert: (c - target)/(c - m0) = (1 + s/h)^(-g).
  const double ratio = (fit.ceiling - target) / (fit.ceiling - fit.m0);
  return fit.half_life * (std::pow(ratio, -1.0 / fit.gamma) - 1.0);
}

}  // namespace autodml::ml
