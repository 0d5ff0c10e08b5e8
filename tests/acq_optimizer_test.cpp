#include <gtest/gtest.h>

#include <cmath>

#include "core/acquisition_optimizer.h"
#include "synthetic_objective.h"

namespace autodml::core {
namespace {

using testing::SyntheticObjective;

Trial completed_trial(const conf::Config& config, double objective) {
  Trial t;
  t.config = config;
  t.outcome.feasible = true;
  t.outcome.objective = objective;
  t.outcome.spent_seconds = objective;
  return t;
}

std::vector<Trial> quadratic_history(SyntheticObjective& objective, int n,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Trial> history;
  for (int i = 0; i < n; ++i) {
    conf::Config c = objective.space().sample_uniform(rng);
    if (c.get_double("x") > 0.9) c.set_double("x", 0.9);  // stay feasible
    history.push_back(completed_trial(c, objective.true_value(c)));
  }
  return history;
}

TEST(AcqOptimizer, NeverProposesEvaluatedConfig) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  const auto history = quadratic_history(objective, 20, 2);
  model.update(history);
  util::Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const auto candidate =
        propose_candidate(model, AcquisitionKind::kLogEi, history, rng);
    ASSERT_TRUE(candidate.has_value());
    for (const Trial& t : history) {
      EXPECT_FALSE(*candidate == t.config);
    }
  }
}

TEST(AcqOptimizer, ReturnsNulloptWhenSpaceExhausted) {
  // Tiny fully-discrete space: once everything is evaluated there is
  // nothing left to propose.
  conf::ConfigSpace space;
  space.add(conf::ParamSpec::boolean("a"));
  space.add(conf::ParamSpec::boolean("b"));
  std::vector<Trial> history;
  util::Rng rng(5);
  for (const conf::Config& c : space.enumerate()) {
    history.push_back(completed_trial(c, 1.0 + rng.uniform()));
  }
  SurrogateModel model(space, {}, 1);
  model.update(history);
  const auto candidate =
      propose_candidate(model, AcquisitionKind::kEi, history, rng);
  EXPECT_FALSE(candidate.has_value());
}

TEST(AcqOptimizer, ProposalsConcentrateNearOptimum) {
  // With a well-sampled quadratic bowl, most proposals should land near the
  // optimum x=0.3 / mode=a rather than uniformly.
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  std::vector<Trial> history = quadratic_history(objective, 40, 7);
  model.update(history);
  util::Rng rng(8);
  int near = 0;
  const int proposals = 12;
  for (int i = 0; i < proposals; ++i) {
    const auto candidate =
        propose_candidate(model, AcquisitionKind::kLogEi, history, rng);
    ASSERT_TRUE(candidate.has_value());
    if (std::abs(candidate->get_double("x") - 0.3) < 0.25 &&
        candidate->get_cat("mode") == "a") {
      ++near;
    }
    // Feed it back so successive proposals keep moving.
    history.push_back(
        completed_trial(*candidate, objective.true_value(*candidate)));
    model.update(history);
  }
  EXPECT_GE(near, proposals / 2);
}

TEST(AcqOptimizer, ImputedProjectionsRaisePredictionsInKilledRegion) {
  // Adding aborted trials that carry terrible projections must raise the
  // surrogate's predicted objective in that region relative to the same
  // model without them — killed runs are evidence, not silence.
  SyntheticObjective objective;
  // Base history visits only mode=a, so the model knows nothing of mode=b;
  // the imputed (killed) runs are its only evidence there.
  std::vector<Trial> base;
  for (Trial& t : quadratic_history(objective, 16, 9)) {
    t.config.set_cat("mode", "a");
    objective.space().canonicalize(t.config);
    t.outcome.objective = objective.true_value(t.config);
    base.push_back(std::move(t));
  }
  std::vector<Trial> with_imputed = base;
  util::Rng rng(10);
  for (int i = 0; i < 10; ++i) {
    conf::Config c = objective.space().sample_uniform(rng);
    c.set_double("x", std::min(c.get_double("x"), 0.9));
    c.set_cat("mode", "b");
    Trial t;
    t.config = c;
    t.outcome.feasible = true;
    t.outcome.aborted = true;
    t.outcome.projected_objective = 5000.0;
    t.outcome.spent_seconds = 5.0;
    with_imputed.push_back(std::move(t));
  }
  SurrogateModel plain(objective.space(), {}, 1);
  plain.update(base);
  SurrogateModel informed(objective.space(), {}, 1);
  informed.update(with_imputed);

  conf::Config probe_b = objective.space().default_config();
  probe_b.set_double("x", 0.4);
  probe_b.set_cat("mode", "b");
  EXPECT_GT(informed.score(probe_b).mean, plain.score(probe_b).mean + 0.5);
  // And the incumbent is untouched (projections are not real observations).
  EXPECT_DOUBLE_EQ(informed.incumbent_log(), plain.incumbent_log());
}

TEST(AcqOptimizer, CostAwareAcquisitionShiftsProposals) {
  // Same objective everywhere, but mode=b "costs" 100x more to evaluate:
  // EI-per-cost should mostly propose mode=a.
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  std::vector<Trial> history;
  util::Rng rng(11);
  for (int i = 0; i < 30; ++i) {
    conf::Config c = objective.space().sample_uniform(rng);
    c.set_double("x", std::min(c.get_double("x"), 0.9));
    Trial t = completed_trial(c, 20.0 + rng.uniform());
    t.outcome.spent_seconds = c.get_cat("mode") == "b" ? 2000.0 : 20.0;
    history.push_back(std::move(t));
  }
  model.update(history);
  int cheap = 0;
  const int proposals = 10;
  util::Rng prop_rng(12);
  for (int i = 0; i < proposals; ++i) {
    const auto candidate = propose_candidate(
        model, AcquisitionKind::kEiPerCost, history, prop_rng);
    ASSERT_TRUE(candidate.has_value());
    cheap += candidate->get_cat("mode") == "a";
    history.push_back(completed_trial(*candidate, 20.0));
    history.back().outcome.spent_seconds =
        candidate->get_cat("mode") == "b" ? 2000.0 : 20.0;
    model.update(history);
  }
  EXPECT_GE(cheap, proposals * 6 / 10);
}

TEST(AcqOptimizer, NeighborhoodSeedsComeFromBestTrials) {
  // With a single excellent trial far from everything else, local
  // neighborhoods should produce at least some proposals adjacent to it.
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  std::vector<Trial> history = quadratic_history(objective, 15, 13);
  conf::Config star = objective.space().default_config();
  star.set_double("x", 0.31);
  star.set_cat("mode", "a");
  star.set_int("k", 7);
  history.push_back(completed_trial(star, SyntheticObjective::kOptimum));
  model.update(history);

  AcqOptimizerOptions options;
  options.random_candidates = 0;  // neighborhoods only
  options.top_k = 1;
  options.neighbors_per_seed = 32;
  util::Rng rng(14);
  const auto candidate = propose_candidate(model, AcquisitionKind::kLogEi,
                                           history, rng, options);
  ASSERT_TRUE(candidate.has_value());
  // A neighbor differs from the seed in a bounded way.
  EXPECT_LT(std::abs(candidate->get_double("x") - 0.31), 0.45);
}

TEST(MakeFantasyTrial, BelievesThePosteriorMeanAndNeverCountsAsSuccess) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  const auto history = quadratic_history(objective, 20, 29);
  conf::Config probe = objective.space().default_config();
  probe.set_double("x", 0.5);

  // Not ready: no belief — the fantasy only dedups the pending config.
  // (The removed constant-liar code fabricated objective = 1.0 here.)
  const Trial blind = make_fantasy_trial(model, probe);
  EXPECT_TRUE(blind.fantasized);
  EXPECT_FALSE(blind.succeeded());
  EXPECT_TRUE(std::isinf(blind.outcome.objective));

  model.update(history);
  ASSERT_TRUE(model.ready());
  const Trial fantasy = make_fantasy_trial(model, probe);
  EXPECT_TRUE(fantasy.fantasized);
  EXPECT_FALSE(fantasy.succeeded());  // never an incumbent / neighborhood seed
  EXPECT_DOUBLE_EQ(fantasy.outcome.objective,
                   std::exp(model.score(probe).mean));
  EXPECT_DOUBLE_EQ(fantasy.outcome.spent_seconds, 0.0);
}

TEST(MakeFantasyTrial, FantasiesLeaveFeasibilityAndCostModelsUntouched) {
  // Regression for the constant-liar leak: batch placeholders are labeled
  // `feasible = true`, and untagged they trained the feasibility GP toward
  // "feasible" at pending points — in the worst case inside a known crash
  // region. A model fit on history + fantasies must score feasibility,
  // cost, and the incumbent exactly as a history-only fit does.
  SyntheticObjective objective;
  std::vector<Trial> history = quadratic_history(objective, 18, 31);
  util::Rng rng(32);
  for (int i = 0; i < 6; ++i) {  // teach the model a real crash region
    conf::Config c = objective.space().sample_uniform(rng);
    c.set_double("x", 0.93 + 0.01 * i);
    Trial t;
    t.config = c;
    t.outcome.feasible = false;
    t.outcome.failure = "crash region";
    t.outcome.spent_seconds = 1.0;
    history.push_back(std::move(t));
  }

  SurrogateModel plain(objective.space(), {}, 7);
  plain.update(history);
  ASSERT_TRUE(plain.ready());

  // Fantasize pending evaluations *inside* the crash region — the most
  // damaging spot for a leaked `feasible = true` label.
  std::vector<Trial> augmented = history;
  for (double x : {0.94, 0.96, 0.98}) {
    conf::Config c = objective.space().default_config();
    c.set_double("x", x);
    augmented.push_back(make_fantasy_trial(plain, c));
  }
  SurrogateModel with_fantasies(objective.space(), {}, 7);
  with_fantasies.update(augmented);
  ASSERT_TRUE(with_fantasies.ready());

  EXPECT_DOUBLE_EQ(with_fantasies.incumbent_log(), plain.incumbent_log());
  util::Rng probe_rng(33);
  for (int i = 0; i < 12; ++i) {
    conf::Config probe = objective.space().sample_uniform(probe_rng);
    const SurrogateScore a = plain.score(probe);
    const SurrogateScore b = with_fantasies.score(probe);
    EXPECT_DOUBLE_EQ(a.prob_feasible, b.prob_feasible) << probe.to_string();
    EXPECT_DOUBLE_EQ(a.log_cost, b.log_cost) << probe.to_string();
  }
}

TEST(AcqOptimizer, EiPerCostWithoutCostModelIsATypedError) {
  SyntheticObjective objective;
  const auto history = quadratic_history(objective, 12, 13);
  SurrogateModel model(objective.space(), {}, 1, /*fit_cost_model=*/false);
  model.update(history);
  util::Rng rng(14);
  EXPECT_THROW(
      propose_candidate(model, AcquisitionKind::kEiPerCost, history, rng),
      std::logic_error);
  EXPECT_TRUE(
      propose_candidate(model, AcquisitionKind::kLogEi, history, rng)
          .has_value());
}

}  // namespace
}  // namespace autodml::core
