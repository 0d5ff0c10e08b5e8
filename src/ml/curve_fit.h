// Learning-curve extrapolation.
//
// The tuner's early-termination policy watches a run's (samples, metric)
// checkpoints, fits a saturating power law
//     m(s) = c - (c - m0) * (1 + s/h)^(-g)
// by least squares, and extrapolates how many samples the run still needs to
// reach the target. If even an optimistic extrapolation says the run cannot
// beat the incumbent, the run is killed — this is where the search-cost
// savings of experiment R-F4 come from.
#pragma once

#include <limits>
#include <span>

namespace autodml::ml {

struct CurveFitResult {
  bool ok = false;
  double ceiling = 0.0;   // c: asymptotic metric
  double m0 = 0.0;        // fitted metric at s = 0
  double half_life = 0.0; // h
  double gamma = 0.0;     // g
  double rmse = std::numeric_limits<double>::infinity();
};

/// Fits the power law to checkpoints. Needs >= 4 points with increasing
/// sample counts; returns ok=false otherwise or when the fit is degenerate.
CurveFitResult fit_learning_curve(std::span<const double> samples,
                                  std::span<const double> metric);

/// Samples needed for the fitted curve to reach `target`; +infinity when the
/// fitted ceiling never reaches it.
double predict_samples_to_reach(const CurveFitResult& fit, double target);

}  // namespace autodml::ml
