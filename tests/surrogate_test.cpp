#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/surrogate.h"
#include "gp/gp.h"
#include "gp/kernel.h"
#include "math/cholesky.h"
#include "synthetic_objective.h"
#include "util/chaos.h"

namespace autodml::core {
namespace {

using testing::SyntheticObjective;

Trial make_trial(const conf::Config& config, double objective, bool feasible,
                 bool aborted = false) {
  Trial t;
  t.config = config;
  t.outcome.feasible = feasible;
  t.outcome.aborted = aborted;
  t.outcome.objective = feasible && !aborted
                            ? objective
                            : std::numeric_limits<double>::infinity();
  t.outcome.spent_seconds = feasible ? objective : 1.0;
  return t;
}

std::vector<Trial> sample_trials(SyntheticObjective& objective, int n,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Trial> trials;
  for (int i = 0; i < n; ++i) {
    const conf::Config c = objective.space().sample_uniform(rng);
    const bool feasible = c.get_double("x") <= 0.92;
    trials.push_back(
        make_trial(c, feasible ? objective.true_value(c) : 0.0, feasible));
  }
  return trials;
}

TEST(Surrogate, NotReadyWithFewSuccesses) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  EXPECT_FALSE(model.ready());
  util::Rng rng(2);
  const conf::Config c = objective.space().sample_uniform(rng);
  std::vector<Trial> one{make_trial(c, 5.0, true)};
  model.update(one);
  EXPECT_FALSE(model.ready());
  EXPECT_THROW(model.score(c), std::logic_error);
}

TEST(Surrogate, ReadyAfterTwoSuccesses) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  const auto trials = sample_trials(objective, 8, 3);
  model.update(trials);
  EXPECT_TRUE(model.ready());
}

TEST(Surrogate, PredictsLogObjectiveOrdering) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  const auto trials = sample_trials(objective, 40, 4);
  model.update(trials);

  // Near-optimal config must score lower mean than a clearly bad one.
  conf::Config good = objective.space().default_config();
  good.set_double("x", 0.3);
  good.set_cat("mode", "a");
  good.set_int("k", 7);
  conf::Config bad = good;
  bad.set_double("x", 0.85);
  bad.set_cat("mode", "b");
  bad.set_int("k", 1);
  EXPECT_LT(model.score(good).mean, model.score(bad).mean);
}

TEST(Surrogate, IncumbentIsMinimumLogObjective) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  const auto trials = sample_trials(objective, 25, 5);
  model.update(trials);
  double best = std::numeric_limits<double>::infinity();
  for (const auto& t : trials) {
    if (t.succeeded()) best = std::min(best, std::log(t.outcome.objective));
  }
  EXPECT_DOUBLE_EQ(model.incumbent_log(), best);
}

TEST(Surrogate, FeasibilityLowNearFailures) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  // Deliberately include many crashes in the x > 0.92 region.
  std::vector<Trial> trials = sample_trials(objective, 30, 6);
  conf::Config crash = objective.space().default_config();
  for (double x : {0.93, 0.95, 0.97, 0.99, 0.94, 0.96}) {
    crash.set_double("x", x);
    trials.push_back(make_trial(crash, 0.0, false));
  }
  model.update(trials);

  conf::Config safe = objective.space().default_config();
  safe.set_double("x", 0.3);
  conf::Config risky = objective.space().default_config();
  risky.set_double("x", 0.97);
  EXPECT_GT(model.score(safe).prob_feasible,
            model.score(risky).prob_feasible);
  EXPECT_LT(model.score(risky).prob_feasible, 0.6);
}

TEST(Surrogate, AllFeasibleGivesFullConfidence) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  std::vector<Trial> trials;
  util::Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    conf::Config c = objective.space().sample_uniform(rng);
    c.set_double("x", 0.2 + 0.05 * i);  // all safe
    trials.push_back(make_trial(c, objective.true_value(c), true));
  }
  model.update(trials);
  EXPECT_DOUBLE_EQ(model.score(trials[0].config).prob_feasible, 1.0);
}

TEST(Surrogate, AbortedRunsAreCensoredFromObjective) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  std::vector<Trial> trials = sample_trials(objective, 10, 8);
  // A slate of aborted runs at an extreme-looking config must not crash or
  // skew the incumbent.
  conf::Config c = objective.space().default_config();
  c.set_double("x", 0.5);
  for (int i = 0; i < 5; ++i) trials.push_back(make_trial(c, 0.0, true, true));
  const double incumbent_before = [&] {
    SurrogateModel m(objective.space(), {}, 1);
    m.update(std::span<const Trial>(trials.data(), 10));
    return m.incumbent_log();
  }();
  model.update(trials);
  EXPECT_DOUBLE_EQ(model.incumbent_log(), incumbent_before);
}

TEST(Surrogate, CostModelTracksSpentSeconds) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  const auto trials = sample_trials(objective, 30, 9);
  model.update(trials);
  // Cheap config (low objective = low spent) vs expensive one.
  conf::Config cheap = objective.space().default_config();
  cheap.set_double("x", 0.3);
  cheap.set_cat("mode", "a");
  cheap.set_int("k", 7);
  conf::Config costly = cheap;
  costly.set_cat("mode", "b");
  costly.set_int("k", 1);
  EXPECT_LT(model.score(cheap).log_cost, model.score(costly).log_cost);
}

TEST(Surrogate, ArdRelevanceHasEncodedDimension) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  EXPECT_TRUE(model.ard_relevance().empty());
  const auto trials = sample_trials(objective, 25, 10);
  model.update(trials);
  EXPECT_EQ(model.ard_relevance().size(),
            objective.space().encoded_dimension());
}

TEST(Surrogate, UpdateIsIdempotent) {
  SyntheticObjective objective;
  SurrogateOptions options;
  options.hyperopt_every = 1000;  // freeze hyperparameters after first fit
  SurrogateModel model(objective.space(), options, 1);
  const auto trials = sample_trials(objective, 15, 11);
  model.update(trials);
  const double mean1 = model.score(trials[0].config).mean;
  model.update(trials);
  const double mean2 = model.score(trials[0].config).mean;
  EXPECT_NEAR(mean1, mean2, 1e-9);
}

// ---- Cost model skipped: objective and feasibility bit-identical -----------

/// The i-th trial of a stream mixing every outcome update() routes
/// differently: successes, deterministic crashes, aborts with and without a
/// projection, transient failures and zero-cost records.
Trial mixed_trial(const SyntheticObjective& objective, util::Rng& rng, int i) {
  const conf::Config c = objective.space().sample_uniform(rng);
  Trial t = make_trial(c, objective.true_value(c), true);
  switch (i % 7) {
    case 2:  // deterministic crash: feasibility label 1, cost sample
      t = make_trial(c, 0.0, false);
      t.outcome.failure_kind = FailureKind::kOom;
      break;
    case 3:  // killed with a projection: censored objective point, no cost
      t = make_trial(c, 0.0, true, /*aborted=*/true);
      t.outcome.spent_seconds = 4.0;
      t.outcome.projected_objective = 1.5 * objective.true_value(c);
      break;
    case 4:  // transient: left out of feasibility, still a cost sample
      t = make_trial(c, 0.0, false);
      t.outcome.failure_kind = FailureKind::kPreempted;
      t.outcome.spent_seconds = 3.0;
      break;
    case 5:  // succeeded at zero cost: objective point, no cost sample
      t.outcome.spent_seconds = 0.0;
      break;
    case 6:  // killed without a projection: feasibility only
      t = make_trial(c, 0.0, true, /*aborted=*/true);
      t.outcome.spent_seconds = 2.0;
      break;
    default:
      break;
  }
  return t;
}

/// Trials the property tests add before update `update`: mostly single
/// appends (the incremental path); every fifth update adds two, which
/// forces a refit with frozen hyperparameters.
int trials_added(int update) {
  return update == 0 ? 3 : (update % 5 == 4 ? 2 : 1);
}

/// Fits a surrogate with and one without the cost model on the same growing
/// history and requires every objective and feasibility prediction to be
/// `==` after each update. The two share nothing but their seed, so any
/// draw the skipped cost model fails to burn shifts every later restart.
/// `fault_update` (0-based, -1 for none) arms the "surrogate.refit" chaos
/// fault for both models' update of that index.
void expect_cost_skip_identical(const SurrogateOptions& options,
                                const std::string& label,
                                int fault_update = -1) {
  SyntheticObjective objective;
  SurrogateModel with_cost(objective.space(), options, 17);
  SurrogateModel without_cost(objective.space(), options, 17,
                              /*fit_cost_model=*/false);
  ASSERT_TRUE(with_cost.fits_cost_model());
  ASSERT_FALSE(without_cost.fits_cost_model());
  util::Rng trial_rng(5);
  util::Rng probe_rng(6);
  std::vector<conf::Config> probes;
  for (int i = 0; i < 6; ++i) {
    probes.push_back(objective.space().sample_uniform(probe_rng));
  }
  std::vector<Trial> trials;
  int next = 0;
  for (int update = 0; update < 22; ++update) {
    for (int k = 0; k < trials_added(update); ++k) {
      trials.push_back(mixed_trial(objective, trial_rng, next++));
    }
    const std::string where =
        label + ", update " + std::to_string(update) + " (" +
        std::to_string(trials.size()) + " trials)";
    if (update == fault_update) {
      util::chaos::arm_fault_point("surrogate.refit", 1, 2);
    }
    with_cost.update(trials);
    without_cost.update(trials);
    if (update == fault_update) {
      util::chaos::disarm_all();
      ASSERT_TRUE(with_cost.degraded()) << where;
    }
    ASSERT_EQ(with_cost.ready(), without_cost.ready()) << where;
    ASSERT_EQ(with_cost.degraded(), without_cost.degraded()) << where;
    if (!with_cost.ready()) continue;
    ASSERT_EQ(with_cost.incumbent_log(), without_cost.incumbent_log())
        << where;
    for (const conf::Config& probe : probes) {
      const SurrogateScore a = with_cost.score(probe);
      const SurrogateScore b = without_cost.score(probe);
      ASSERT_EQ(a.mean, b.mean) << where << " at " << probe.to_string();
      ASSERT_EQ(a.variance, b.variance) << where << " at " << probe.to_string();
      ASSERT_EQ(a.prob_feasible, b.prob_feasible)
          << where << " at " << probe.to_string();
      EXPECT_EQ(b.log_cost, 0.0) << where;
    }
  }
}

SurrogateOptions skip_options(SurrogateBackend backend, int hyperopt_every) {
  SurrogateOptions options;
  options.backend = backend;
  options.hyperopt_every = hyperopt_every;
  options.rff_features = 64;
  options.gp.adam_iterations = 40;
  options.gp.polish_iterations = 20;
  return options;
}

TEST(CostModelSkip, PosteriorsIdenticalOnEveryScheduleAndBackend) {
  for (const SurrogateBackend backend :
       {SurrogateBackend::kExact, SurrogateBackend::kRff}) {
    for (const int every : {1, 3}) {
      expect_cost_skip_identical(
          skip_options(backend, every),
          std::string(backend == SurrogateBackend::kRff ? "rff" : "exact") +
              ", hyperopt_every " + std::to_string(every));
    }
  }
}

TEST(CostModelSkip, PosteriorsIdenticalWhenAutoSwitchesBetweenRounds) {
  // Evidence trigger off, so hyperopt runs exactly on updates 0, 3, 6, ...
  // The cost set (no aborts, no zero-cost records) reaches the threshold
  // on a later update than the objective set; check that it does so on an
  // update with no scheduled round, where only the backend switch makes
  // the cost model fit (and so draw) at all.
  SurrogateOptions options = skip_options(SurrogateBackend::kAuto, 3);
  options.refit_nlml_degradation = 0.0;
  options.rff_threshold = 12;
  SyntheticObjective objective;
  util::Rng trial_rng(5);
  std::size_t cost_points = 0;
  int next = 0;
  int crossing = -1;
  for (int update = 0; update < 22 && crossing < 0; ++update) {
    for (int k = 0; k < trials_added(update); ++k) {
      const Trial t = mixed_trial(objective, trial_rng, next++);
      cost_points += !t.outcome.aborted && t.outcome.spent_seconds > 0.0;
    }
    if (cost_points >= options.rff_threshold) crossing = update;
  }
  ASSERT_GT(crossing, 0);
  ASSERT_NE(crossing % 3, 0) << "cost model crosses on a hyperopt round";
  expect_cost_skip_identical(options, "auto, threshold 12");
}

TEST(CostModelSkip, PosteriorsIdenticalAcrossAnInjectedRefitFault) {
  // Every fit attempt of update 8 fails for both models: the escalation
  // ladder runs out, both park in degraded mode with a raised noise floor,
  // and update 9 refits from scratch.
  expect_cost_skip_identical(skip_options(SurrogateBackend::kExact, 3),
                             "exact, fault at update 8", /*fault_update=*/8);
}

TEST(CostModelSkip, CostModelFitsOnlyWhenAsked) {
  SyntheticObjective objective;
  const auto trials = sample_trials(objective, 20, 12);
  SurrogateModel with_cost(objective.space(), {}, 1);
  SurrogateModel without_cost(objective.space(), {}, 1,
                              /*fit_cost_model=*/false);
  with_cost.update(trials);
  without_cost.update(trials);
  EXPECT_NE(with_cost.score(trials[0].config).log_cost, 0.0);
  EXPECT_EQ(without_cost.score(trials[0].config).log_cost, 0.0);
}

// ---- score_batch / predict_batch against the per-point path, bit for bit --

/// Batch sizes around the edge of predict_batch's block.
std::vector<std::size_t> batch_sizes() {
  constexpr std::size_t kBlock = gp::GaussianProcess::kPredictBlock;
  return {1, kBlock - 1, kBlock, kBlock + 1};
}

/// `count` points in [0,1]^dim, row-major.
math::Vec random_rows(std::size_t count, std::size_t dim, util::Rng& rng) {
  math::Vec rows(count * dim);
  for (double& v : rows) v = rng.uniform();
  return rows;
}

/// predict_batch, with and without the variance, against predict() at every
/// point, for each batch size.
void expect_predict_batch_matches(const gp::Regressor& model, std::size_t dim,
                                  util::Rng& rng, const std::string& where) {
  for (const std::size_t count : batch_sizes()) {
    const math::Vec rows = random_rows(count, dim, rng);
    std::vector<gp::GpPrediction> full(count), means(count);
    model.predict_batch(rows, full, /*with_variance=*/true);
    model.predict_batch(rows, means, /*with_variance=*/false);
    for (std::size_t c = 0; c < count; ++c) {
      const gp::GpPrediction want = model.predict(
          std::span<const double>(rows).subspan(c * dim, dim));
      const std::string at = where + ", batch " + std::to_string(count) +
                             ", point " + std::to_string(c);
      ASSERT_EQ(full[c].mean, want.mean) << at;
      ASSERT_EQ(full[c].variance, want.variance) << at;
      ASSERT_EQ(means[c].mean, want.mean) << at;
      ASSERT_EQ(means[c].variance, 0.0) << at;
    }
  }
}

template <typename K>
void expect_gp_predict_batch_matches(const std::string& kernel) {
  constexpr std::size_t kDim = 5;
  util::Rng rng(41);
  gp::GpOptions options;
  options.adam_iterations = 20;
  options.polish_iterations = 10;
  for (const std::size_t n : {1u, 2u, 17u, 64u}) {
    math::Matrix x(n, kDim);
    math::Vec y(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < kDim; ++d) x(i, d) = rng.uniform();
      y[i] = std::sin(4.0 * x(i, 0)) + x(i, 1) * x(i, 2) + 0.1 * rng.normal();
    }
    gp::GaussianProcess model(std::make_unique<K>(kDim), options);
    model.fit(x, y, rng);  // hyperopt from n = 3 on
    expect_predict_batch_matches(model, kDim, rng,
                                 kernel + ", n " + std::to_string(n));
  }
}

TEST(ScoreBatch, GpPredictBatchMatchesPredictForBothKernels) {
  expect_gp_predict_batch_matches<gp::SquaredExponentialArd>("se");
  expect_gp_predict_batch_matches<gp::Matern52Ard>("matern");
}

template <typename K>
void expect_jittered_predict_batch_matches(const std::string& kernel) {
  // Pairs of rows 1e-13 apart under long lengthscales and a noise variance
  // below the Gram matrix's rounding: the factorization must add jitter.
  constexpr std::size_t kDim = 2;
  constexpr std::size_t kN = 17;
  util::Rng rng(42);
  math::Matrix x(kN, kDim);
  math::Vec y(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t d = 0; d < kDim; ++d)
      x(i, d) = 0.05 * static_cast<double>(i / 2 + d) + (i % 2) * 1e-13;
    y[i] = rng.normal();
  }
  auto kernel_ptr = std::make_unique<K>(kDim);
  kernel_ptr->set_hyperparams(
      math::Vec{std::log(15.0), std::log(15.0), std::log(40.0)});
  math::Matrix gram(kN, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j)
      gram(i, j) = kernel_ptr->eval(x.row(i), x.row(j));
    gram(i, i) += std::exp(std::log(1e-16));
  }
  ASSERT_GT(math::cholesky_with_jitter(gram).jitter, 0.0) << kernel;

  gp::GpOptions options;
  options.optimize_hyperparams = false;
  options.initial_noise = 1e-16;
  gp::GaussianProcess model(std::move(kernel_ptr), options);
  model.fit(x, y, rng);
  expect_predict_batch_matches(model, kDim, rng, kernel + ", jittered");
}

TEST(ScoreBatch, GpPredictBatchMatchesPredictOnAJitteredFactor) {
  expect_jittered_predict_batch_matches<gp::SquaredExponentialArd>("se");
  expect_jittered_predict_batch_matches<gp::Matern52Ard>("matern");
}

/// score_batch against score() at every probe, for each batch size.
/// Returns the batch scores of the largest batch, for callers to check
/// which models were live.
std::vector<SurrogateScore> expect_score_batch_matches(
    const SurrogateModel& model, util::Rng& rng, const std::string& where) {
  const conf::ConfigSpace& space = model.space();
  std::vector<SurrogateScore> got;
  for (const std::size_t count : batch_sizes()) {
    std::vector<conf::Config> probes;
    math::Vec rows;
    for (std::size_t c = 0; c < count; ++c) {
      probes.push_back(space.sample_uniform(rng));
      const math::Vec x = space.encode(probes.back());
      rows.insert(rows.end(), x.begin(), x.end());
    }
    got.assign(count, SurrogateScore{});
    model.score_batch(rows, got);
    for (std::size_t c = 0; c < count; ++c) {
      const SurrogateScore want = model.score(probes[c]);
      const std::string at = where + ", batch " + std::to_string(count) +
                             ", " + probes[c].to_string();
      EXPECT_EQ(got[c].mean, want.mean) << at;
      EXPECT_EQ(got[c].variance, want.variance) << at;
      EXPECT_EQ(got[c].prob_feasible, want.prob_feasible) << at;
      EXPECT_EQ(got[c].log_cost, want.log_cost) << at;
    }
  }
  return got;
}

TEST(ScoreBatch, MatchesScoreWithAndWithoutFeasibilityAndCostModels) {
  SyntheticObjective objective;
  for (const SurrogateBackend backend :
       {SurrogateBackend::kExact, SurrogateBackend::kRff}) {
    for (const bool failures : {false, true}) {
      for (const bool cost : {false, true}) {
        for (const int n : {2, 17, 64}) {
          const std::string where =
              std::string(backend == SurrogateBackend::kRff ? "rff" : "exact") +
              (failures ? ", feasibility" : "") + (cost ? ", cost" : "") +
              ", " + std::to_string(n) + " trials";
          util::Rng rng(static_cast<std::uint64_t>(n) + 7);
          std::vector<Trial> trials;
          for (int i = 0; i < n; ++i) {
            const conf::Config c = objective.space().sample_uniform(rng);
            // Every third trial a deterministic crash when failures are on.
            const bool crash = failures && i % 3 == 2;
            trials.push_back(make_trial(c, crash ? 0.0 : objective.true_value(c),
                                        !crash));
          }
          SurrogateModel model(objective.space(), skip_options(backend, 1), 3,
                               cost);
          model.update(trials);
          ASSERT_TRUE(model.ready()) << where;
          const std::vector<SurrogateScore> got =
              expect_score_batch_matches(model, rng, where);
          // The models under test were live: a fitted feasibility model
          // varies prob_feasible across probes, a cost model sets log_cost.
          bool varies = false;
          for (const SurrogateScore& s : got)
            varies = varies || s.prob_feasible != got.front().prob_feasible;
          if (failures && n >= 17) {
            EXPECT_TRUE(varies) << where;
          }
          if (!failures) {
            EXPECT_FALSE(varies) << where;
          }
          if (cost) {
            EXPECT_NE(got.front().log_cost, 0.0) << where;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace autodml::core
