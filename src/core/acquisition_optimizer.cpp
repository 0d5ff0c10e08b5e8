#include "core/acquisition_optimizer.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace autodml::core {

namespace {

/// Step size of a neighborhood move, in encoded (unit-cube) coordinates.
constexpr double kNeighborSigma = 0.12;

/// Exact-duplicate detection via the canonical encoding.
std::set<math::Vec> encode_history(const conf::ConfigSpace& space,
                                   std::span<const Trial> history) {
  std::set<math::Vec> seen;
  for (const Trial& t : history) seen.insert(space.encode(t.config));
  return seen;
}

/// Scores the candidates whose encodings are the rows of `rows` (row-major)
/// in one score_batch call.
std::vector<double> score_candidates(const SurrogateModel& surrogate,
                                     AcquisitionKind kind,
                                     std::span<const double> rows,
                                     std::size_t count) {
  ADML_SPAN("acq.score");
  std::vector<SurrogateScore> posterior(count);
  surrogate.score_batch(rows, posterior);
  std::vector<double> scores(count);
  for (std::size_t i = 0; i < count; ++i) {
    const SurrogateScore& s = posterior[i];
    AcquisitionInputs in;
    in.mean = s.mean;
    in.variance = s.variance;
    in.incumbent = surrogate.incumbent_log();
    in.prob_feasible = s.prob_feasible;
    in.log_cost = s.log_cost;
    scores[i] = score_acquisition(kind, in);
  }
  return scores;
}

}  // namespace

std::optional<conf::Config> propose_candidate(
    const SurrogateModel& surrogate, AcquisitionKind kind,
    std::span<const Trial> history, util::Rng& rng,
    const AcqOptimizerOptions& options) {
  ADML_SPAN("acq.propose");
  if (reads_cost(kind) && !surrogate.fits_cost_model()) {
    // Scoring would read log_cost = 0 and silently fall back to log-EI.
    throw std::logic_error("propose_candidate: " + to_string(kind) +
                           " reads the cost model, which this surrogate "
                           "was built without");
  }
  const conf::ConfigSpace& space = surrogate.space();
  const std::set<math::Vec> seen = encode_history(space, history);

  std::vector<conf::Config> candidates;
  candidates.reserve(
      static_cast<std::size_t>(options.random_candidates) +
      static_cast<std::size_t>(options.top_k * options.neighbors_per_seed));
  for (int i = 0; i < options.random_candidates; ++i) {
    candidates.push_back(space.sample_uniform(rng));
  }

  // Local neighborhoods around the best successful trials.
  std::vector<const Trial*> ranked;
  for (const Trial& t : history) {
    if (t.succeeded()) ranked.push_back(&t);
  }
  std::sort(ranked.begin(), ranked.end(), [](const Trial* a, const Trial* b) {
    return a->outcome.objective < b->outcome.objective;
  });
  const std::size_t k =
      std::min<std::size_t>(ranked.size(), static_cast<std::size_t>(options.top_k));
  for (std::size_t i = 0; i < k; ++i) {
    for (int j = 0; j < options.neighbors_per_seed; ++j) {
      candidates.push_back(
          space.neighbor(ranked[i]->config, rng, kNeighborSigma));
    }
  }

  // Encode each candidate once and dedup in generation order (against the
  // history and within the pool), keeping the survivors' encodings for
  // scoring.
  std::vector<conf::Config> unique;
  unique.reserve(candidates.size());
  math::Vec rows;  // the survivors' encodings, row-major
  rows.reserve(candidates.size() * space.encoded_dimension());
  std::set<math::Vec> pooled;  // dedup within the pool too
  for (auto& candidate : candidates) {
    math::Vec x = space.encode(candidate);
    if (seen.count(x)) continue;
    const auto [it, inserted] = pooled.insert(std::move(x));
    if (!inserted) continue;
    rows.insert(rows.end(), it->begin(), it->end());
    unique.push_back(std::move(candidate));
  }
  ADML_COUNT("acq.candidates_generated",
             static_cast<std::int64_t>(candidates.size()));
  ADML_COUNT("acq.candidates_scored",
             static_cast<std::int64_t>(unique.size()));
  const std::vector<double> scores =
      score_candidates(surrogate, kind, rows, unique.size());

  // Lowest-index argmax: the strict `>` keeps the earliest of tied scores.
  double best_score = -std::numeric_limits<double>::infinity();
  std::optional<conf::Config> best;
  for (std::size_t i = 0; i < unique.size(); ++i) {
    if (scores[i] > best_score) {
      best_score = scores[i];
      best = std::move(unique[i]);
    }
  }
  return best;
}

conf::Config sample_unseen(const conf::ConfigSpace& space,
                           std::span<const Trial> history, util::Rng& rng) {
  constexpr int kDraws = 64;
  const std::set<math::Vec> seen = encode_history(space, history);
  conf::Config draw = space.sample_uniform(rng);
  for (int i = 1; i < kDraws && seen.count(space.encode(draw)) != 0; ++i) {
    draw = space.sample_uniform(rng);
  }
  return draw;
}

Trial make_fantasy_trial(const SurrogateModel& model,
                         const conf::Config& config) {
  Trial fantasy;
  fantasy.config = config;
  fantasy.fantasized = true;
  // The outcome is a belief, never an observation: `feasible` + zero cost
  // make the trial *parse* as a completed run, but SurrogateModel::update
  // routes fantasized trials into the objective posterior only.
  fantasy.outcome.feasible = true;
  fantasy.outcome.spent_seconds = 0.0;
  if (model.ready()) {
    // Kriging believer: believe the posterior mean at the pending point.
    fantasy.outcome.objective = std::exp(model.score(config).mean);
    ADML_COUNT("acq.fantasized", 1);
  }
  // Model not ready: objective stays +infinity — no belief to condition
  // on, the fantasy only dedups the pending configuration. (The previous
  // constant-liar code fabricated an arbitrary `objective = 1.0` here.)
  return fantasy;
}

}  // namespace autodml::core
