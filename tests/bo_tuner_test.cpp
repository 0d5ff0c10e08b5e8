#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/bo_tuner.h"
#include "core/sensitivity.h"
#include "synthetic_objective.h"

namespace autodml::core {
namespace {

using testing::SyntheticObjective;

BoOptions fast_options(std::uint64_t seed, int evals) {
  BoOptions options;
  options.seed = seed;
  options.max_evaluations = evals;
  options.initial_design_size = 6;
  options.surrogate.gp.restarts = 1;
  options.surrogate.gp.adam_iterations = 60;
  options.acq_optimizer.random_candidates = 256;
  return options;
}

// A constructible space the linter must reject: duplicate categorical
// entries make the one-hot encoding ambiguous (diagnostic L011).
class BrokenSpaceObjective final : public ObjectiveFunction {
 public:
  BrokenSpaceObjective() {
    space_.add(conf::ParamSpec::categorical("mode", {"a", "a"}));
  }
  const conf::ConfigSpace& space() const override { return space_; }
  double target_metric() const override { return 0.9; }
  RunOutcome run(const conf::Config&, RunController*) override {
    ++runs_;
    return RunOutcome{};
  }
  int runs() const { return runs_; }

 private:
  conf::ConfigSpace space_;
  int runs_ = 0;
};

// Two booleans, so four configurations, and every run crashes: the
// surrogate never fits, so every model-phase ask takes the uniform fallback.
class AlwaysCrashObjective final : public ObjectiveFunction {
 public:
  AlwaysCrashObjective() {
    space_.add(conf::ParamSpec::boolean("a"));
    space_.add(conf::ParamSpec::boolean("b"));
  }
  const conf::ConfigSpace& space() const override { return space_; }
  double target_metric() const override { return 0.9; }
  RunOutcome run(const conf::Config&, RunController*) override {
    RunOutcome out;
    out.feasible = false;
    out.failure = "crash";
    out.spent_seconds = 1.0;
    return out;
  }

 private:
  conf::ConfigSpace space_;
};

std::size_t distinct_configs(const conf::ConfigSpace& space,
                             const std::vector<conf::Config>& configs) {
  std::set<math::Vec> encoded;
  for (const conf::Config& c : configs) encoded.insert(space.encode(c));
  return encoded.size();
}

TEST(BoTuner, RefusesSpaceWithLintErrorsBeforeSpendingBudget) {
  BrokenSpaceObjective objective;
  try {
    BoTuner tuner(objective, fast_options(1, 5));
    FAIL() << "BoTuner accepted a space with lint errors";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("L011"), std::string::npos) << what;
    EXPECT_NE(what.find("mode"), std::string::npos) << what;
  }
  EXPECT_EQ(objective.runs(), 0);  // no evaluation budget was spent
}

TEST(BoTuner, RejectsWarmStartTrialsFromDifferentSpaceShape) {
  SyntheticObjective objective;
  BoOptions options = fast_options(1, 5);
  Trial stale;
  stale.config = conf::Config(&objective.space(), {});  // zero values
  options.warm_start.push_back(stale);
  EXPECT_THROW(BoTuner(objective, std::move(options)), std::invalid_argument);
}

TEST(BoTuner, RespectsEvaluationBudgetExactly) {
  SyntheticObjective objective;
  BoTuner tuner(objective, fast_options(1, 15));
  const TuningResult result = tuner.tune();
  EXPECT_EQ(result.trials.size(), 15u);
  EXPECT_EQ(objective.total_runs(), 15);
  EXPECT_EQ(result.incumbent_curve.size(), 15u);
}

TEST(BoTuner, IncumbentCurveIsMonotoneNonIncreasing) {
  SyntheticObjective objective;
  BoTuner tuner(objective, fast_options(2, 20));
  const TuningResult result = tuner.tune();
  for (std::size_t i = 1; i < result.incumbent_curve.size(); ++i) {
    EXPECT_LE(result.incumbent_curve[i], result.incumbent_curve[i - 1]);
  }
}

TEST(BoTuner, FindsNearOptimum) {
  SyntheticObjective objective;
  BoTuner tuner(objective, fast_options(3, 30));
  const TuningResult result = tuner.tune();
  ASSERT_TRUE(result.found_feasible());
  // Optimum is 10; within 30 evaluations BO should get close.
  EXPECT_LT(result.best_objective, SyntheticObjective::kOptimum * 1.6);
  EXPECT_EQ(result.best_config.get_cat("mode"), "a");
}

TEST(BoTuner, BeatsRandomSamplingOnAverage) {
  double bo_total = 0.0, random_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SyntheticObjective bo_objective;
    BoTuner tuner(bo_objective, fast_options(seed, 25));
    bo_total += tuner.tune().best_objective;

    SyntheticObjective random_objective;
    util::Rng rng(seed);
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 25; ++i) {
      const conf::Config c = random_objective.space().sample_uniform(rng);
      const RunOutcome outcome = random_objective.run(c, nullptr);
      if (outcome.feasible) best = std::min(best, outcome.objective);
    }
    random_total += best;
  }
  EXPECT_LT(bo_total, random_total);
}

TEST(BoTuner, DeterministicGivenSeed) {
  SyntheticObjective obj1, obj2;
  BoTuner t1(obj1, fast_options(7, 15));
  BoTuner t2(obj2, fast_options(7, 15));
  const TuningResult r1 = t1.tune();
  const TuningResult r2 = t2.tune();
  EXPECT_DOUBLE_EQ(r1.best_objective, r2.best_objective);
  ASSERT_EQ(r1.trials.size(), r2.trials.size());
  for (std::size_t i = 0; i < r1.trials.size(); ++i) {
    EXPECT_TRUE(r1.trials[i].config == r2.trials[i].config) << i;
  }
}

TEST(BoTuner, SurvivesCrashRegion) {
  // Even if many initial samples crash, the tuner must finish and learn.
  SyntheticObjective objective;
  BoOptions options = fast_options(11, 25);
  options.initial_design_size = 10;
  BoTuner tuner(objective, options);
  const TuningResult result = tuner.tune();
  EXPECT_TRUE(result.found_feasible());
  // Late trials should rarely be crashes once the feasibility model kicks in.
  int late_crashes = 0;
  for (std::size_t i = 15; i < result.trials.size(); ++i) {
    if (!result.trials[i].outcome.feasible) ++late_crashes;
  }
  EXPECT_LE(late_crashes, 4);
}

TEST(BoTuner, WarmStartSkipsColdExploration) {
  // Build a history from one tuning session and warm-start another.
  SyntheticObjective first;
  BoTuner pilot(first, fast_options(13, 20));
  const TuningResult pilot_result = pilot.tune();

  SyntheticObjective cold_obj, warm_obj;
  BoOptions cold_options = fast_options(14, 8);
  BoTuner cold(cold_obj, cold_options);
  BoOptions warm_options = fast_options(14, 8);
  warm_options.warm_start = pilot_result.trials;
  warm_options.initial_design_size = 2;  // prior knowledge replaces design
  BoTuner warm(warm_obj, warm_options);

  const double cold_best = cold.tune().best_objective;
  const double warm_best = warm.tune().best_objective;
  EXPECT_LE(warm_best, cold_best * 1.25);  // warm never much worse
}

TEST(BoTuner, WarmStartTrialsNotCountedInBudget) {
  SyntheticObjective pilot_obj;
  BoTuner pilot(pilot_obj, fast_options(15, 10));
  const TuningResult pilot_result = pilot.tune();

  SyntheticObjective objective;
  BoOptions options = fast_options(16, 5);
  options.warm_start = pilot_result.trials;
  BoTuner tuner(objective, options);
  const TuningResult result = tuner.tune();
  EXPECT_EQ(result.trials.size(), 5u);
  EXPECT_EQ(objective.total_runs(), 5);
}

TEST(BoTuner, SpentBudgetStopsSearch) {
  SyntheticObjective objective;
  BoOptions options = fast_options(17, 1000);
  options.max_spent_seconds = 100.0;  // a handful of runs at ~10-60 s each
  BoTuner tuner(objective, options);
  const TuningResult result = tuner.tune();
  EXPECT_LT(result.trials.size(), 30u);
  // The overshoot is at most one run.
  EXPECT_GE(result.total_spent_seconds, 100.0);
}

TEST(BoTuner, EarlyTerminationAbortsBadCandidates) {
  SyntheticObjective objective;
  BoOptions options = fast_options(19, 30);
  options.early_term.enabled = true;
  options.early_term.min_checkpoints = 4;
  options.early_term.kill_factor = 1.3;  // aggressive enough for the small
                                         // spread of the synthetic bowl
  BoTuner tuner(objective, options);
  const TuningResult result = tuner.tune();
  int aborted = 0;
  for (const auto& t : result.trials) aborted += t.outcome.aborted;
  EXPECT_GT(aborted, 0);  // bad modes/ks get killed from their curves
  EXPECT_TRUE(result.found_feasible());
}

TEST(BoTuner, SensitivityRanksIrrelevantKnobLast) {
  // x, mode, and k all drive the objective; "dud" does not. The ARD
  // relevance must put the dud at the bottom of the ranking.
  SyntheticObjective objective;
  BoTuner tuner(objective, fast_options(21, 35));
  tuner.tune();
  const math::Vec relevance = tuner.surrogate().ard_relevance();
  ASSERT_FALSE(relevance.empty());
  const auto importance =
      ard_param_importance(objective.space(), relevance);
  ASSERT_EQ(importance.size(), 4u);
  double total = 0.0;
  for (const auto& p : importance) total += p.importance;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(importance.back().param, "dud");
  EXPECT_LT(importance.back().importance, 0.25);
}

TEST(BoTuner, NeverResubmitsBeforeTheSpaceIsExhausted) {
  // The uniform fallback draws against the history and the outstanding
  // asks: four trials over a four-config space are all distinct.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    AlwaysCrashObjective objective;
    BoOptions options;
    options.seed = seed;
    options.initial_design_size = 1;
    options.max_evaluations = 4;
    BoTuner tuner(objective, options);
    std::vector<conf::Config> configs;
    for (const Trial& t : tuner.tune().trials) configs.push_back(t.config);
    ASSERT_EQ(configs.size(), 4u);
    EXPECT_EQ(distinct_configs(objective.space(), configs), 4u)
        << "seed " << seed;
  }
}

TEST(BoTuner, FitsTheCostModelOnlyForEiPerCost) {
  for (const AcquisitionKind kind :
       {AcquisitionKind::kEiPerCost, AcquisitionKind::kLogEi}) {
    SyntheticObjective objective;
    BoOptions options = fast_options(3, 10);
    options.acquisition = kind;
    BoTuner tuner(objective, options);
    tuner.tune();
    ASSERT_TRUE(tuner.surrogate().ready());
    EXPECT_EQ(tuner.surrogate().fits_cost_model(), reads_cost(kind));
    const conf::Config probe = objective.space().default_config();
    if (reads_cost(kind)) {
      EXPECT_NE(tuner.surrogate().score(probe).log_cost, 0.0);
    } else {
      EXPECT_EQ(tuner.surrogate().score(probe).log_cost, 0.0);
    }
  }
}

TEST(BoTunerSession, UniformFallbackSkipsEvaluatedConfigs) {
  // Three of the four configurations are already evaluated, so the one
  // fallback draw that is not a duplicate is the fourth. Once the space is
  // exhausted, an ask still gets a proposal (the last draw) rather than
  // stalling the session.
  AlwaysCrashObjective objective;
  const std::vector<conf::Config> all = objective.space().enumerate();
  ASSERT_EQ(all.size(), 4u);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    BoOptions options;
    options.seed = seed;
    options.initial_design_size = 0;
    options.max_evaluations = 2;
    for (std::size_t i = 0; i + 1 < all.size(); ++i) {
      Trial t;
      t.config = all[i];
      t.outcome = objective.run(all[i], nullptr);
      options.warm_start.push_back(std::move(t));
    }
    BoTuner tuner(objective, options);
    const auto first = tuner.ask_next();
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(first->config == all.back()) << "seed " << seed;
    EXPECT_TRUE(tuner.ask_next().has_value());
  }
}

TEST(BoTunerSession, OutstandingAsksAreDistinctFromEachOtherAndHistory) {
  // k asks held outstanding are conditioned on each other's fantasies:
  // pairwise distinct, and distinct from every evaluated configuration.
  constexpr int kOutstanding = 4;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SyntheticObjective objective;
    BoTuner tuner(objective, fast_options(seed, 10 + kOutstanding));
    for (int i = 0; i < 10; ++i) {
      const auto ask = tuner.ask_next();
      ASSERT_TRUE(ask.has_value());
      tuner.tell_next(ask->ticket, tuner.evaluate(*ask));
    }
    std::vector<conf::Config> configs;
    for (int i = 0; i < kOutstanding; ++i) {
      const auto ask = tuner.ask_next();
      ASSERT_TRUE(ask.has_value());
      objective.space().validate(ask->config);
      configs.push_back(ask->config);
    }
    EXPECT_EQ(distinct_configs(objective.space(), configs),
              static_cast<std::size_t>(kOutstanding));
    for (const Trial& t : tuner.session_result().trials) {
      configs.push_back(t.config);
    }
    EXPECT_EQ(distinct_configs(objective.space(), configs), configs.size())
        << "seed " << seed;
  }
}

TEST(Sensitivity, DimensionMismatchThrows) {
  SyntheticObjective objective;
  EXPECT_THROW(ard_param_importance(objective.space(), math::Vec{1.0}),
               std::invalid_argument);
}

TEST(RecordTrial, TracksBestAndSpent) {
  SyntheticObjective objective;
  TuningResult result;
  util::Rng rng(23);
  conf::Config c = objective.space().sample_uniform(rng);
  c.set_double("x", 0.3);

  Trial good;
  good.config = c;
  good.outcome.feasible = true;
  good.outcome.objective = 12.0;
  good.outcome.spent_seconds = 12.0;
  record_trial(result, good);

  Trial failed;
  failed.config = c;
  failed.outcome.feasible = false;
  failed.outcome.spent_seconds = 1.0;
  record_trial(result, failed);

  EXPECT_DOUBLE_EQ(result.best_objective, 12.0);
  EXPECT_DOUBLE_EQ(result.total_spent_seconds, 13.0);
  EXPECT_EQ(result.incumbent_curve.size(), 2u);
  EXPECT_DOUBLE_EQ(result.incumbent_curve[1], 12.0);
}

}  // namespace
}  // namespace autodml::core
