// Acquisition functions for minimization.
//
// All functions score a candidate from its GP posterior (mean/variance on
// the *log* objective — the evaluator's objective spans decades) and the
// incumbent best (same log scale). Larger score = more attractive. log-EI is
// numerically stable where plain EI underflows (far-from-incumbent points
// late in a run), which matters once the GP is confident: the ablation
// R-F5 quantifies the difference.
#pragma once

#include <string>
#include <string_view>

namespace autodml::core {

enum class AcquisitionKind { kEi, kLogEi, kUcb, kPi, kEiPerCost };

AcquisitionKind acquisition_from_string(std::string_view s);
std::string to_string(AcquisitionKind k);

/// True for the kinds whose score reads SurrogateScore::log_cost; only
/// those need the surrogate's cost model.
constexpr bool reads_cost(AcquisitionKind k) {
  return k == AcquisitionKind::kEiPerCost;
}

double normal_pdf(double z);
double normal_cdf(double z);

/// Expected improvement over `best` when minimizing; 0 when var == 0 and
/// mean >= best.
double expected_improvement(double mean, double variance, double best);

/// log(EI), computed in log space (never -inf for positive variance).
double log_expected_improvement(double mean, double variance, double best);

/// Lower-confidence-bound score: -(mean - beta * sigma); maximize.
double ucb_score(double mean, double variance, double beta);

/// Probability of improvement Phi((best - mean)/sigma).
double probability_of_improvement(double mean, double variance, double best);

struct AcquisitionInputs {
  double mean = 0.0;       // posterior mean (log objective)
  double variance = 0.0;   // posterior variance
  double incumbent = 0.0;  // best observed (log objective)
  double prob_feasible = 1.0;
  double log_cost = 0.0;   // predicted log evaluation cost (kEiPerCost)
  double ucb_beta = 2.0;
};

/// Dispatch; every kind is multiplied by prob_feasible (in log space for
/// kLogEi). Higher is better.
double score_acquisition(AcquisitionKind kind, const AcquisitionInputs& in);

}  // namespace autodml::core
