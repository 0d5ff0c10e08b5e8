// Tests for the tuner extensions: deadline-constrained objectives,
// synchronous parallel BO (round-barrier drives of one BoTuner session),
// variance-based sensitivity, and tuning-session persistence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "baselines/parallel_bo.h"
#include "core/sensitivity.h"
#include "core/session_io.h"
#include "synthetic_objective.h"
#include "workloads/objective_adapter.h"

namespace autodml {
namespace {

using testing::SyntheticObjective;

// ---- deadline-constrained evaluation ------------------------------------------

TEST(Deadline, ViolatingRunBecomesFailure) {
  const wl::Workload& workload = wl::workload_by_name("mlp-tabular");
  wl::Evaluator unconstrained(workload, 3);
  const conf::Config c =
      wl::default_expert_config(workload, unconstrained.space());
  const wl::EvalResult free_run = unconstrained.evaluate_ground_truth(c);
  ASSERT_TRUE(free_run.feasible);

  wl::EvaluatorOptions options;
  options.deadline_seconds = free_run.tta_seconds / 2.0;  // unreachable
  wl::Evaluator constrained(workload, 3, options);
  const wl::EvalResult capped = constrained.evaluate_ground_truth(c);
  EXPECT_FALSE(capped.feasible);
  EXPECT_EQ(capped.failure, "deadline exceeded");
}

TEST(Deadline, GenerousDeadlineChangesNothing) {
  const wl::Workload& workload = wl::workload_by_name("logreg-ads");
  wl::EvaluatorOptions options;
  options.deadline_seconds = 1e12;
  wl::Evaluator evaluator(workload, 4, options);
  const conf::Config c =
      wl::default_expert_config(workload, evaluator.space());
  const wl::EvalResult r = evaluator.evaluate_ground_truth(c);
  EXPECT_TRUE(r.feasible);
}

TEST(Deadline, ViolatingRunChargedUpToDeadline) {
  const wl::Workload& workload = wl::workload_by_name("mlp-tabular");
  wl::Evaluator probe(workload, 5);
  const conf::Config c = wl::default_expert_config(workload, probe.space());
  const double tta = probe.evaluate_ground_truth(c).tta_seconds;

  wl::EvaluatorOptions options;
  options.deadline_seconds = tta / 3.0;
  wl::Evaluator constrained(workload, 5, options);
  const wl::EvalResult r = constrained.start(c)->result();
  EXPECT_FALSE(r.feasible);
  // Charged provisioning + the deadline, not the (longer) full run.
  EXPECT_LT(r.spent_seconds, tta);
  EXPECT_GE(r.spent_seconds, options.deadline_seconds);
}

TEST(Deadline, CheckpointsStopAtDeadline) {
  const wl::Workload& workload = wl::workload_by_name("mlp-tabular");
  wl::Evaluator probe(workload, 6);
  const conf::Config c = wl::default_expert_config(workload, probe.space());
  const double tta = probe.evaluate_ground_truth(c).tta_seconds;

  wl::EvaluatorOptions options;
  options.deadline_seconds = tta / 2.0;
  wl::Evaluator constrained(workload, 6, options);
  auto run = constrained.start(c);
  ASSERT_FALSE(run->failed());
  double last = 0.0;
  while (auto cp = run->next_checkpoint()) last = cp->wall_seconds;
  EXPECT_LE(last, options.deadline_seconds);
  EXPECT_FALSE(run->result().feasible);
}

TEST(Deadline, TunerMinimizesCostUnderSlo) {
  // Constrained cost tuning must return a config that satisfies the SLO.
  const wl::Workload& workload = wl::workload_by_name("logreg-ads");
  wl::EvaluatorOptions options;
  options.objective = wl::Objective::kCostToAccuracy;
  options.deadline_seconds = 3600.0;  // 1 hour: tight but reachable
  wl::Evaluator evaluator(workload, 7, options);
  wl::EvaluatorObjective objective(evaluator);
  core::BoOptions bo;
  bo.seed = 7;
  bo.max_evaluations = 20;
  bo.surrogate.gp.restarts = 1;
  core::BoTuner tuner(objective, bo);
  const core::TuningResult result = tuner.tune();
  ASSERT_TRUE(result.found_feasible());
  const wl::EvalResult truth =
      evaluator.evaluate_ground_truth(result.best_config);
  ASSERT_TRUE(truth.feasible);
  EXPECT_LE(truth.tta_seconds, options.deadline_seconds);
}

std::vector<core::Trial> seed_history(SyntheticObjective& objective, int n,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::Trial> history;
  for (int i = 0; i < n; ++i) {
    core::Trial t;
    t.config = objective.space().sample_uniform(rng);
    t.outcome = objective.run(t.config, nullptr);
    history.push_back(std::move(t));
  }
  return history;
}

// ---- synchronous parallel BO -----------------------------------------------------

core::BoOptions parallel_options(std::uint64_t seed, int batch_size,
                                 int rounds) {
  core::BoOptions options;
  options.seed = seed;
  options.initial_design_size = batch_size;
  options.max_evaluations = batch_size * rounds;
  options.surrogate.gp.restarts = 1;
  return options;
}

TEST(ParallelBo, BatchOfOneIsTheSequentialTuner) {
  core::BoOptions options;
  options.seed = 8;
  options.max_evaluations = 14;
  options.surrogate.gp.restarts = 1;
  SyntheticObjective seq_obj;
  core::BoTuner tuner(seq_obj, options);
  const core::TuningResult want = tuner.tune();

  SyntheticObjective par_obj;
  const baselines::ParallelBoResult got =
      baselines::parallel_bo(par_obj, options, 1);
  ASSERT_EQ(got.tuning.trials.size(), want.trials.size());
  for (std::size_t i = 0; i < want.trials.size(); ++i) {
    EXPECT_TRUE(got.tuning.trials[i].config == want.trials[i].config) << i;
    EXPECT_EQ(got.tuning.trials[i].outcome.objective,
              want.trials[i].outcome.objective)
        << i;
  }
  EXPECT_EQ(got.wall_clock_seconds, got.tuning.total_spent_seconds);
}

TEST(ParallelBo, WallClockBeatsSequentialAtSameEvaluationCount) {
  SyntheticObjective par_obj;
  const baselines::ParallelBoResult par =
      baselines::parallel_bo(par_obj, parallel_options(6, 4, 5), 4);
  EXPECT_EQ(par.tuning.trials.size(), 20u);
  // Sequential wall clock is the sum of all evaluation times.
  EXPECT_LT(par.wall_clock_seconds,
            par.tuning.total_spent_seconds * 0.75);
  EXPECT_TRUE(par.tuning.found_feasible());
}

TEST(ParallelBo, QualityComparableToSequential) {
  double parallel_total = 0.0, sequential_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SyntheticObjective par_obj;
    parallel_total +=
        baselines::parallel_bo(par_obj, parallel_options(seed, 4, 6), 4)
            .tuning.best_objective;

    SyntheticObjective seq_obj;
    core::BoOptions bo;
    bo.seed = seed;
    bo.max_evaluations = 24;
    bo.surrogate.gp.restarts = 1;
    core::BoTuner tuner(seq_obj, bo);
    sequential_total += tuner.tune().best_objective;
  }
  EXPECT_LT(parallel_total, sequential_total * 1.8);
}

TEST(ParallelBo, RejectsBadOptions) {
  SyntheticObjective objective;
  EXPECT_THROW(baselines::parallel_bo(objective, {}, 0),
               std::invalid_argument);
}

// ---- variance-based sensitivity ---------------------------------------------------

TEST(VarianceImportance, RanksIrrelevantKnobLast) {
  SyntheticObjective objective;
  const auto history = seed_history(objective, 40, 9);
  core::SurrogateModel model(objective.space(), {}, 2);
  model.update(history);
  ASSERT_TRUE(model.ready());
  util::Rng rng(10);
  const auto importance =
      core::variance_importance(model, objective.space(), rng);
  ASSERT_EQ(importance.size(), 4u);
  EXPECT_EQ(importance.back().param, "dud");
  // x explains the bulk of the variance on this bowl.
  EXPECT_EQ(importance.front().param, "x");
  for (const auto& p : importance) EXPECT_GE(p.importance, 0.0);
}

TEST(VarianceImportance, RequiresReadySurrogate) {
  SyntheticObjective objective;
  core::SurrogateModel model(objective.space(), {}, 2);
  util::Rng rng(11);
  EXPECT_THROW(core::variance_importance(model, objective.space(), rng),
               std::logic_error);
}

TEST(VarianceImportance, ValidatesSampleCounts) {
  SyntheticObjective objective;
  const auto history = seed_history(objective, 10, 12);
  core::SurrogateModel model(objective.space(), {}, 2);
  model.update(history);
  util::Rng rng(13);
  EXPECT_THROW(
      core::variance_importance(model, objective.space(), rng, 1, 4),
      std::invalid_argument);
}

// ---- session persistence ------------------------------------------------------------

TEST(SessionIo, JsonRoundTripPreservesTrials) {
  SyntheticObjective objective;
  const auto history = seed_history(objective, 12, 14);
  const std::string json = core::trials_to_json(history);
  const auto loaded = core::trials_from_json(json, objective.space());
  ASSERT_EQ(loaded.size(), history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_TRUE(loaded[i].config == history[i].config) << i;
    EXPECT_EQ(loaded[i].outcome.feasible, history[i].outcome.feasible);
    EXPECT_EQ(loaded[i].outcome.aborted, history[i].outcome.aborted);
    if (history[i].succeeded()) {
      EXPECT_DOUBLE_EQ(loaded[i].outcome.objective,
                       history[i].outcome.objective);
    } else {
      EXPECT_TRUE(std::isinf(loaded[i].outcome.objective));
    }
    EXPECT_DOUBLE_EQ(loaded[i].outcome.spent_seconds,
                     history[i].outcome.spent_seconds);
  }
}

TEST(SessionIo, FileRoundTrip) {
  SyntheticObjective objective;
  const auto history = seed_history(objective, 5, 15);
  const std::string path = ::testing::TempDir() + "/autodml_session.json";
  core::save_trials(path, history);
  const auto loaded = core::load_trials(path, objective.space());
  EXPECT_EQ(loaded.size(), history.size());
  std::remove(path.c_str());
}

TEST(SessionIo, LoadedTrialsWarmStartATuner) {
  SyntheticObjective pilot;
  const auto history = seed_history(pilot, 15, 16);
  const std::string json = core::trials_to_json(history);

  SyntheticObjective fresh;
  core::BoOptions options;
  options.seed = 16;
  options.max_evaluations = 6;
  options.initial_design_size = 2;
  options.surrogate.gp.restarts = 1;
  options.warm_start = core::trials_from_json(json, fresh.space());
  core::BoTuner tuner(fresh, options);
  const core::TuningResult result = tuner.tune();
  EXPECT_EQ(result.trials.size(), 6u);
  EXPECT_TRUE(result.found_feasible());
}

TEST(SessionIo, RejectsMalformedDocuments) {
  SyntheticObjective objective;
  EXPECT_THROW(core::trials_from_json("[]", objective.space()),
               std::invalid_argument);
  // Missing fields surface as invalid_argument with field context, never
  // as raw map/variant access errors.
  EXPECT_THROW(core::trials_from_json("{\"trials\": [{}]}",
                                      objective.space()),
               std::invalid_argument);
  // Unknown parameter name.
  const char* doc = R"({"trials":[{"config":{"zzz":1},
      "outcome":{"feasible":true,"aborted":false,"failure":"",
                 "objective":5,"spent_seconds":5,"usd_per_hour":1}}]})";
  EXPECT_THROW(core::trials_from_json(doc, objective.space()),
               std::invalid_argument);
  // Outcomes the wire rejects are rejected on load too: a negative spend,
  // a fractional attempt count, one past the range of int, a completed run
  // with no objective.
  for (const char* outcome :
       {R"("feasible":false,"aborted":false,"failure":"OOM",)"
        R"("objective":null,"spent_seconds":-1,"usd_per_hour":1)",
        R"("feasible":false,"aborted":false,"failure":"OOM",)"
        R"("objective":null,"spent_seconds":5,"usd_per_hour":1,)"
        R"("attempts":1.5)",
        R"("feasible":false,"aborted":false,"failure":"OOM",)"
        R"("objective":null,"spent_seconds":5,"usd_per_hour":1,)"
        R"("attempts":1e300)",
        R"("feasible":true,"aborted":false,"failure":"",)"
        R"("objective":null,"spent_seconds":5,"usd_per_hour":1)"}) {
    EXPECT_THROW(core::trials_from_json(
                     std::string(R"({"trials":[{"config":{},"outcome":{)") +
                         outcome + "}}]}",
                     objective.space()),
                 std::invalid_argument)
        << outcome;
  }
}

TEST(SessionIo, RejectsOutOfRangeValues) {
  SyntheticObjective objective;
  const char* doc = R"({"trials":[{"config":
      {"x":55.0,"mode":"a","k":3,"dud":0.5},
      "outcome":{"feasible":true,"aborted":false,"failure":"",
                 "objective":5,"spent_seconds":5,"usd_per_hour":1}}]})";
  EXPECT_THROW(core::trials_from_json(doc, objective.space()),
               std::invalid_argument);
}

TEST(SessionIo, LoadFromMissingFileThrows) {
  SyntheticObjective objective;
  EXPECT_THROW(core::load_trials("/nonexistent/path.json", objective.space()),
               std::runtime_error);
}

}  // namespace
}  // namespace autodml
