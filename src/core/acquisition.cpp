#include "core/acquisition.h"

#include <cmath>
#include <stdexcept>

namespace autodml::core {

namespace {
constexpr double kSqrt2 = 1.41421356237309504880;
constexpr double kSqrt2Pi = 2.50662827463100050242;
constexpr double kMinSigma = 1e-12;
}  // namespace

AcquisitionKind acquisition_from_string(std::string_view s) {
  if (s == "ei") return AcquisitionKind::kEi;
  if (s == "logei") return AcquisitionKind::kLogEi;
  if (s == "ucb") return AcquisitionKind::kUcb;
  if (s == "pi") return AcquisitionKind::kPi;
  if (s == "eipercost") return AcquisitionKind::kEiPerCost;
  throw std::invalid_argument("unknown acquisition: " + std::string(s));
}

std::string to_string(AcquisitionKind k) {
  switch (k) {
    case AcquisitionKind::kEi:
      return "ei";
    case AcquisitionKind::kLogEi:
      return "logei";
    case AcquisitionKind::kUcb:
      return "ucb";
    case AcquisitionKind::kPi:
      return "pi";
    case AcquisitionKind::kEiPerCost:
      return "eipercost";
  }
  return "?";
}

double normal_pdf(double z) {
  return std::exp(-0.5 * z * z) / kSqrt2Pi;
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / kSqrt2); }

double expected_improvement(double mean, double variance, double best) {
  const double sigma = std::sqrt(std::max(0.0, variance));
  if (sigma < kMinSigma) return std::max(0.0, best - mean);
  const double z = (best - mean) / sigma;
  return (best - mean) * normal_cdf(z) + sigma * normal_pdf(z);
}

double log_expected_improvement(double mean, double variance, double best) {
  const double sigma = std::sqrt(std::max(0.0, variance));
  if (sigma < kMinSigma) {
    const double imp = best - mean;
    return imp > 0.0 ? std::log(imp) : -1e100;
  }
  const double z = (best - mean) / sigma;
  // EI = sigma * (z Phi(z) + phi(z)). For z >= -6 compute directly; deeper
  // in the tail use the expansion EI ~ sigma phi(z) / z^2 (Mills ratio).
  if (z > -6.0) {
    const double inner = z * normal_cdf(z) + normal_pdf(z);
    return std::log(sigma) + std::log(std::max(inner, 1e-300));
  }
  return std::log(sigma) - 0.5 * z * z - std::log(kSqrt2Pi) -
         2.0 * std::log(-z);
}

double ucb_score(double mean, double variance, double beta) {
  return -(mean - beta * std::sqrt(std::max(0.0, variance)));
}

double probability_of_improvement(double mean, double variance, double best) {
  const double sigma = std::sqrt(std::max(0.0, variance));
  if (sigma < kMinSigma) return mean < best ? 1.0 : 0.0;
  return normal_cdf((best - mean) / sigma);
}

double score_acquisition(AcquisitionKind kind, const AcquisitionInputs& in) {
  switch (kind) {
    case AcquisitionKind::kEi:
      return in.prob_feasible *
             expected_improvement(in.mean, in.variance, in.incumbent);
    case AcquisitionKind::kLogEi:
      return log_expected_improvement(in.mean, in.variance, in.incumbent) +
             std::log(std::max(in.prob_feasible, 1e-12));
    case AcquisitionKind::kUcb:
      // UCB is sign-indefinite, so feasibility enters as an additive
      // penalty rather than a multiplier (a multiplier would *reward*
      // infeasibility whenever the score is negative).
      return ucb_score(in.mean, in.variance, in.ucb_beta) -
             10.0 * (1.0 - in.prob_feasible);
    case AcquisitionKind::kPi:
      return in.prob_feasible *
             probability_of_improvement(in.mean, in.variance, in.incumbent);
    case AcquisitionKind::kEiPerCost:
      // EI per unit predicted cost, in log space for stability.
      return log_expected_improvement(in.mean, in.variance, in.incumbent) +
             std::log(std::max(in.prob_feasible, 1e-12)) - in.log_cost;
  }
  return 0.0;
}

}  // namespace autodml::core
