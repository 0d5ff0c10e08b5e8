#include <gtest/gtest.h>

#include <cmath>

#include "workloads/evaluator.h"
#include "workloads/objective_adapter.h"
#include "workloads/workload.h"

namespace autodml::wl {
namespace {

// ---- suite -----------------------------------------------------------------------

TEST(WorkloadSuite, SixDistinctWorkloads) {
  const auto& suite = workload_suite();
  EXPECT_EQ(suite.size(), 6u);
  std::set<std::string> names;
  for (const auto& w : suite) {
    names.insert(w.name);
    EXPECT_GT(w.model_bytes, 0.0);
    EXPECT_GT(w.flops_per_sample, 0.0);
    EXPECT_GT(w.stat.base_samples, 0.0);
    EXPECT_GT(w.stat.metric_ceiling, w.stat.target_metric);
    EXPECT_FALSE(w.worker_menu.empty());
    EXPECT_FALSE(w.batch_menu.empty());
    EXPECT_FALSE(w.worker_instance_menu.empty());
  }
  EXPECT_EQ(names.size(), 6u);
}

TEST(WorkloadSuite, LookupByName) {
  EXPECT_EQ(workload_by_name("cnn-cifar").name, "cnn-cifar");
  EXPECT_THROW(workload_by_name("not-a-workload"), std::invalid_argument);
}

// ---- config space binding -----------------------------------------------------------

TEST(ConfigSpaceBinding, HasExpectedParams) {
  const conf::ConfigSpace space =
      build_config_space(workload_by_name("mlp-tabular"));
  for (const char* name :
       {"arch", "sync", "staleness", "num_workers", "num_servers",
        "batch_per_worker", "learning_rate", "comm_threads", "compression",
        "worker_type"}) {
    EXPECT_TRUE(space.contains(name)) << name;
  }
  EXPECT_EQ(space.num_params(), 10u);
}

TEST(ConfigSpaceBinding, ConditionalsFollowArchitecture) {
  const auto& workload = workload_by_name("mlp-tabular");
  const conf::ConfigSpace space = build_config_space(workload);
  conf::Config c = space.default_config();
  c.set_cat("arch", "allreduce");
  space.canonicalize(c);
  EXPECT_FALSE(space.is_active(c, space.index_of("sync")));
  EXPECT_FALSE(space.is_active(c, space.index_of("num_servers")));
  EXPECT_FALSE(space.is_active(c, space.index_of("comm_threads")));
  c.set_cat("arch", "ps");
  c.set_cat("sync", "ssp");
  EXPECT_TRUE(space.is_active(c, space.index_of("staleness")));
  c.set_cat("sync", "bsp");
  EXPECT_FALSE(space.is_active(c, space.index_of("staleness")));
}

TEST(ConfigSpaceBinding, ToSystemConfigMapsFields) {
  const auto& workload = workload_by_name("mf-recsys");
  const conf::ConfigSpace space = build_config_space(workload);
  conf::Config c = space.default_config();
  c.set_cat("arch", "ps");
  c.set_cat("sync", "ssp");
  c.set_int("staleness", 5);
  c.set_int("num_workers", 8);
  c.set_int("num_servers", 4);
  c.set_int("batch_per_worker", 64);
  c.set_double("learning_rate", 0.01);
  c.set_int("comm_threads", 2);
  c.set_cat("compression", "int8");
  c.set_cat("worker_type", "net8");
  space.canonicalize(c);

  const sim::SystemConfig sys = to_system_config(workload, c);
  EXPECT_EQ(sys.arch, sim::Arch::kPs);
  EXPECT_EQ(sys.cluster.num_workers, 8);
  EXPECT_EQ(sys.cluster.num_servers, 4);
  EXPECT_EQ(sys.cluster.worker_type, "net8");
  EXPECT_EQ(sys.job.sync, sim::SyncMode::kSsp);
  EXPECT_EQ(sys.job.staleness, 5);
  EXPECT_EQ(sys.job.batch_per_worker, 64);
  EXPECT_EQ(sys.job.comm_threads, 2);
  EXPECT_EQ(sys.job.compression, sim::Compression::kInt8);
  EXPECT_DOUBLE_EQ(sys.job.model_bytes, workload.model_bytes);
}

TEST(ConfigSpaceBinding, AllReduceForcesSynchronousNoServers) {
  const auto& workload = workload_by_name("cnn-cifar");
  const conf::ConfigSpace space = build_config_space(workload);
  conf::Config c = space.default_config();
  c.set_cat("arch", "allreduce");
  space.canonicalize(c);
  const sim::SystemConfig sys = to_system_config(workload, c);
  EXPECT_EQ(sys.arch, sim::Arch::kAllReduce);
  EXPECT_EQ(sys.cluster.num_servers, 0);
  EXPECT_EQ(sys.job.sync, sim::SyncMode::kBsp);
  EXPECT_EQ(sys.job.staleness, 0);
}

TEST(ConfigSpaceBinding, DefaultExpertConfigIsValid) {
  for (const auto& workload : workload_suite()) {
    const conf::ConfigSpace space = build_config_space(workload);
    const conf::Config c = default_expert_config(workload, space);
    EXPECT_NO_THROW(space.validate(c)) << workload.name;
    EXPECT_EQ(c.get_cat("arch"), "ps");
  }
}

// ---- evaluator ------------------------------------------------------------------------

TEST(Evaluator, DefaultConfigIsFeasible) {
  const auto& workload = workload_by_name("logreg-ads");
  Evaluator evaluator(workload, 3);
  const conf::Config c = default_expert_config(workload, evaluator.space());
  const EvalResult r = evaluator.start(c)->result();
  EXPECT_TRUE(r.feasible);
  EXPECT_GT(r.tta_seconds, 0.0);
  EXPECT_GT(r.cost_usd, 0.0);
  EXPECT_GT(r.usd_per_hour, 0.0);
  EXPECT_GT(r.samples_needed, 0.0);
  EXPECT_FALSE(r.terminated_early);
}

TEST(Evaluator, GroundTruthIsDeterministicAndUncharged) {
  const auto& workload = workload_by_name("mlp-tabular");
  Evaluator evaluator(workload, 4);
  const conf::Config c = default_expert_config(workload, evaluator.space());
  const EvalResult a = evaluator.evaluate_ground_truth(c);
  const EvalResult b = evaluator.evaluate_ground_truth(c);
  EXPECT_DOUBLE_EQ(a.tta_seconds, b.tta_seconds);
  EXPECT_DOUBLE_EQ(evaluator.total_spent_seconds(), 0.0);
  EXPECT_EQ(evaluator.num_runs(), 0u);
}

TEST(Evaluator, RepeatedEvaluationsAreNoisy) {
  const auto& workload = workload_by_name("mlp-tabular");
  Evaluator evaluator(workload, 5);
  const conf::Config c = default_expert_config(workload, evaluator.space());
  const EvalResult a = evaluator.start(c)->result();
  const EvalResult b = evaluator.start(c)->result();
  EXPECT_NE(a.tta_seconds, b.tta_seconds);
  // ... but within the noise envelope.
  EXPECT_NEAR(std::log(a.tta_seconds / b.tta_seconds), 0.0, 1.0);
}

TEST(Evaluator, LedgerChargesFullRuns) {
  const auto& workload = workload_by_name("logreg-ads");
  Evaluator evaluator(workload, 6);
  const conf::Config c = default_expert_config(workload, evaluator.space());
  const EvalResult r = evaluator.start(c)->result();
  EXPECT_EQ(evaluator.num_runs(), 1u);
  EXPECT_NEAR(evaluator.total_spent_seconds(), r.spent_seconds, 1e-9);
  EXPECT_GT(r.spent_seconds, r.tta_seconds);  // includes provisioning
}

TEST(Evaluator, OomConfigFailsFastAndCheap) {
  const auto& workload = workload_by_name("resnet-imagenet");
  Evaluator evaluator(workload, 7);
  conf::Config c = default_expert_config(workload, evaluator.space());
  c.set_cat("worker_type", "std16");  // 64 GB
  c.set_int("batch_per_worker", 512); // 512*3e7 = 15 GB activations; fine...
  c.set_cat("arch", "allreduce");     // + optimizer state on workers
  evaluator.space().canonicalize(c);
  // Make it definitively OOM by the largest batch on the smallest shape.
  const EvalResult r = evaluator.start(c)->result();
  if (!r.feasible) {
    EXPECT_FALSE(r.failure.empty());
    EXPECT_LT(r.spent_seconds, 600.0);  // only provisioning overhead
    EXPECT_TRUE(std::isinf(r.objective_value(Objective::kTimeToAccuracy)));
  }
}

TEST(Evaluator, DivergentLrReportsDivergence) {
  const auto& workload = workload_by_name("cnn-cifar");
  Evaluator evaluator(workload, 8);
  conf::Config c = default_expert_config(workload, evaluator.space());
  c.set_double("learning_rate", workload.lr_hi);  // way above optimum
  c.set_int("batch_per_worker", 8);
  c.set_int("num_workers", 1);
  evaluator.space().canonicalize(c);
  const EvalResult r = evaluator.start(c)->result();
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.failure, "diverged");
  EXPECT_GT(r.spent_seconds, 0.0);
}

TEST(Evaluator, CheckpointStreamIsMonotone) {
  const auto& workload = workload_by_name("logreg-ads");
  Evaluator evaluator(workload, 9);
  const conf::Config c = default_expert_config(workload, evaluator.space());
  auto run = evaluator.start(c);
  ASSERT_FALSE(run->failed());
  double prev_time = 0.0, prev_metric = -1.0;
  int count = 0;
  while (auto cp = run->next_checkpoint()) {
    EXPECT_GT(cp->wall_seconds, prev_time);
    EXPECT_GT(cp->metric, prev_metric);
    EXPECT_LE(cp->metric, workload.stat.target_metric + 1e-9);
    prev_time = cp->wall_seconds;
    prev_metric = cp->metric;
    ++count;
  }
  EXPECT_GT(count, 3);
  EXPECT_LE(count, evaluator.options().max_checkpoints_per_run);
  const EvalResult r = run->result();
  EXPECT_TRUE(r.feasible);
}

TEST(Evaluator, AbortChargesOnlyTimeSpent) {
  const auto& workload = workload_by_name("logreg-ads");
  Evaluator full_eval(workload, 10);
  Evaluator abort_eval(workload, 10);
  const conf::Config c = default_expert_config(workload, full_eval.space());

  const EvalResult full = full_eval.start(c)->result();

  auto run = abort_eval.start(c);
  ASSERT_TRUE(run->next_checkpoint().has_value());
  ASSERT_TRUE(run->next_checkpoint().has_value());
  const EvalResult aborted = run->abort();
  EXPECT_TRUE(aborted.terminated_early);
  EXPECT_LT(aborted.spent_seconds, full.spent_seconds);
  EXPECT_TRUE(std::isinf(aborted.objective_value(Objective::kTimeToAccuracy)));
  EXPECT_LT(abort_eval.total_spent_seconds(), full_eval.total_spent_seconds());
}

TEST(Evaluator, ResultIsIdempotent) {
  const auto& workload = workload_by_name("logreg-ads");
  Evaluator evaluator(workload, 11);
  const conf::Config c = default_expert_config(workload, evaluator.space());
  auto run = evaluator.start(c);
  const EvalResult a = run->result();
  const double spent_after_first = evaluator.total_spent_seconds();
  const EvalResult b = run->result();  // no double charge
  EXPECT_DOUBLE_EQ(a.tta_seconds, b.tta_seconds);
  EXPECT_DOUBLE_EQ(evaluator.total_spent_seconds(), spent_after_first);
}

TEST(Evaluator, CostObjectiveUsesDollars) {
  const auto& workload = workload_by_name("logreg-ads");
  EvaluatorOptions options;
  options.objective = Objective::kCostToAccuracy;
  Evaluator evaluator(workload, 12, options);
  const conf::Config c = default_expert_config(workload, evaluator.space());
  const EvalResult r = evaluator.start(c)->result();
  EXPECT_DOUBLE_EQ(r.objective_value(Objective::kCostToAccuracy), r.cost_usd);
  EXPECT_NEAR(r.cost_usd, r.tta_seconds / 3600.0 * r.usd_per_hour, 1e-6);
}

// ---- objective adapter --------------------------------------------------------------

TEST(ObjectiveAdapter, FullRunMapsFields) {
  const auto& workload = workload_by_name("logreg-ads");
  Evaluator evaluator(workload, 13);
  EvaluatorObjective objective(evaluator);
  EXPECT_DOUBLE_EQ(objective.target_metric(), workload.stat.target_metric);
  EXPECT_FALSE(objective.objective_is_cost());
  const conf::Config c = default_expert_config(workload, evaluator.space());
  const core::RunOutcome outcome = objective.run(c, nullptr);
  EXPECT_TRUE(outcome.feasible);
  EXPECT_FALSE(outcome.aborted);
  EXPECT_GT(outcome.objective, 0.0);
  EXPECT_TRUE(std::isfinite(outcome.objective));
}

namespace {
class AbortAfterN final : public core::RunController {
 public:
  explicit AbortAfterN(int n) : n_(n) {}
  bool should_abort(const core::RunCheckpoint&) override { return ++seen_ >= n_; }
  int seen() const { return seen_; }

 private:
  int n_;
  int seen_ = 0;
};
}  // namespace

TEST(ObjectiveAdapter, ControllerCanAbort) {
  const auto& workload = workload_by_name("logreg-ads");
  Evaluator evaluator(workload, 14);
  EvaluatorObjective objective(evaluator);
  const conf::Config c = default_expert_config(workload, evaluator.space());
  AbortAfterN controller(3);
  const core::RunOutcome outcome = objective.run(c, &controller);
  EXPECT_TRUE(outcome.aborted);
  EXPECT_EQ(controller.seen(), 3);
  EXPECT_TRUE(std::isinf(outcome.objective));
  EXPECT_GT(outcome.spent_seconds, 0.0);
}

TEST(ObjectiveAdapter, ToTrialConversion) {
  const auto& workload = workload_by_name("logreg-ads");
  Evaluator evaluator(workload, 15);
  const conf::Config c = default_expert_config(workload, evaluator.space());
  const EvalResult r = evaluator.start(c)->result();
  const core::Trial trial = to_trial(r, Objective::kTimeToAccuracy);
  EXPECT_TRUE(trial.succeeded());
  EXPECT_DOUBLE_EQ(trial.outcome.objective, r.tta_seconds);
}

}  // namespace
}  // namespace autodml::wl
