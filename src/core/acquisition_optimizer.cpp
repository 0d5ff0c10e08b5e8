#include "core/acquisition_optimizer.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <set>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace autodml::core {

namespace {

/// Exact-duplicate detection via the canonical encoding.
std::set<math::Vec> encode_history(const conf::ConfigSpace& space,
                                   std::span<const Trial> history) {
  std::set<math::Vec> seen;
  for (const Trial& t : history) seen.insert(space.encode(t.config));
  return seen;
}

/// Score `count` candidates from their encodings (row-major in `rows`),
/// serially or chunked across the pool; each range goes through one
/// score_batch call. Writes into per-index slots so the result is
/// independent of scheduling order.
std::vector<double> score_candidates(const SurrogateModel& surrogate,
                                     AcquisitionKind kind,
                                     std::span<const double> rows,
                                     std::size_t count,
                                     const AcqOptimizerOptions& options) {
  ADML_SPAN("acq.score");
  const std::size_t dim = surrogate.space().encoded_dimension();
  std::vector<double> scores(count);
  const auto score_range = [&](std::size_t begin, std::size_t end) {
    std::vector<SurrogateScore> posterior(end - begin);
    surrogate.score_batch(rows.subspan(begin * dim, (end - begin) * dim),
                          posterior);
    for (std::size_t i = begin; i < end; ++i) {
      const SurrogateScore& s = posterior[i - begin];
      AcquisitionInputs in;
      in.mean = s.mean;
      in.variance = s.variance;
      in.incumbent = surrogate.incumbent_log();
      in.prob_feasible = s.prob_feasible;
      in.log_cost = s.log_cost;
      in.ucb_beta = options.ucb_beta;
      scores[i] = score_acquisition(kind, in);
    }
  };
  if (options.pool == nullptr || options.pool->size() < 2 || count < 2) {
    score_range(0, count);
    return scores;
  }
  // Lock discipline: the workers share no guarded state — each chunk
  // writes a disjoint index range of `scores`, and the surrogate is only
  // read — so there is deliberately no mutex here for -Wthread-safety to
  // track; the submit/join pair in util::ThreadPool is the only
  // synchronization. Oversplit relative to the thread count so a slow
  // chunk (e.g. one hitting the feasibility GP) does not serialize the
  // tail.
  const std::size_t chunks = std::min(count, options.pool->size() * 4);
  const std::size_t per_chunk = (count + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t begin = 0; begin < count; begin += per_chunk) {
    const std::size_t end = std::min(begin + per_chunk, count);
    futures.push_back(
        options.pool->submit([&score_range, begin, end] {
          // One span per chunk, emitted from the worker thread: the trace
          // shows how candidate scoring fans out across the pool.
          ADML_SPAN("acq.score_chunk");
          score_range(begin, end);
        }));
  }
  for (auto& f : futures) f.get();
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
          space.neighbor(ranked[i]->config, rng, options.neighbor_sigma));
    }
  }

  // Encode each candidate once and dedup serially in generation order
  // (against the history and within the pool), keeping the survivors'
  // encodings for scoring — concurrently when a pool is supplied.
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
      score_candidates(surrogate, kind, rows, unique.size(), options);

  // Lowest-index argmax: the strict `>` keeps the earliest of tied scores,
  // matching the serial reduction regardless of thread count.
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
