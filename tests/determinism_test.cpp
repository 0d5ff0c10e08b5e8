// Cross-component determinism: every stochastic pipeline must be bit-exact
// reproducible from its seed — the property all experiment claims rest on —
// plus assorted coverage for small utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>

#include "baselines/baseline_tuners.h"
#include "baselines/parallel_bo.h"
#include "config/sampler.h"
#include "sim/system_sim.h"
#include "core/bo_tuner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fs.h"
#include "util/log.h"
#include "util/stopwatch.h"
#include "workloads/eval_supervisor.h"
#include "workloads/objective_adapter.h"

namespace autodml {
namespace {

TEST(Determinism, SamplersReproduce) {
  const wl::Workload& workload = wl::workload_by_name("mlp-tabular");
  const conf::ConfigSpace space = wl::build_config_space(workload);
  util::Rng a(5), b(5);
  const auto batch_a = conf::latin_hypercube(space, 20, a);
  const auto batch_b = conf::latin_hypercube(space, 20, b);
  ASSERT_EQ(batch_a.size(), batch_b.size());
  for (std::size_t i = 0; i < batch_a.size(); ++i) {
    EXPECT_TRUE(batch_a[i] == batch_b[i]) << i;
  }
}

TEST(Determinism, SystemSimulationReproduces) {
  sim::SystemConfig config;
  config.arch = sim::Arch::kPs;
  config.cluster.worker_type = "std8";
  config.cluster.server_type = "mem8";
  config.cluster.num_workers = 8;
  config.cluster.num_servers = 4;
  config.job.model_bytes = 120e6;
  config.job.flops_per_sample = 1e8;
  config.job.batch_per_worker = 64;
  config.job.sync = sim::SyncMode::kAsp;
  util::Rng a(9), b(9);
  const auto perf_a = sim::evaluate_system(config, a);
  const auto perf_b = sim::evaluate_system(config, b);
  EXPECT_DOUBLE_EQ(perf_a.runtime.updates_per_second,
                   perf_b.runtime.updates_per_second);
  EXPECT_DOUBLE_EQ(perf_a.runtime.mean_staleness,
                   perf_b.runtime.mean_staleness);
  EXPECT_DOUBLE_EQ(perf_a.runtime.bytes_per_update,
                   perf_b.runtime.bytes_per_update);
}

TEST(Determinism, EvaluatorSequencesReproduce) {
  const wl::Workload& workload = wl::workload_by_name("cnn-cifar");
  wl::Evaluator eval_a(workload, 33), eval_b(workload, 33);
  util::Rng cfg_a(7), cfg_b(7);
  for (int i = 0; i < 8; ++i) {
    const conf::Config ca = eval_a.space().sample_uniform(cfg_a);
    const conf::Config cb = eval_b.space().sample_uniform(cfg_b);
    ASSERT_TRUE(ca == cb);
    const wl::EvalResult ra = eval_a.start(ca)->result();
    const wl::EvalResult rb = eval_b.start(cb)->result();
    EXPECT_EQ(ra.feasible, rb.feasible);
    if (ra.feasible) {
      EXPECT_DOUBLE_EQ(ra.tta_seconds, rb.tta_seconds);
    }
  }
  EXPECT_DOUBLE_EQ(eval_a.total_spent_seconds(), eval_b.total_spent_seconds());
}

TEST(Determinism, EveryRegisteredTunerReproduces) {
  const wl::Workload& workload = wl::workload_by_name("logreg-ads");
  for (const auto& entry : baselines::tuner_registry()) {
    const auto run = [&] {
      wl::Evaluator evaluator(workload, 44);
      wl::EvaluatorObjective objective(evaluator);
      return entry.fn(objective, 8, 44).best_objective;
    };
    EXPECT_DOUBLE_EQ(run(), run()) << entry.name;
  }
}

TEST(Determinism, ParallelBoReproduces) {
  const wl::Workload& workload = wl::workload_by_name("mlp-tabular");
  const auto run = [&] {
    wl::Evaluator evaluator(workload, 55);
    wl::EvaluatorObjective objective(evaluator);
    core::BoOptions options;
    options.initial_design_size = 3;
    options.max_evaluations = 9;
    options.seed = 55;
    options.surrogate.gp.restarts = 1;
    const auto result = baselines::parallel_bo(objective, options, 3);
    return std::make_pair(result.tuning.best_objective,
                          result.wall_clock_seconds);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(Determinism, FaultScheduleReproduces) {
  const sim::FaultSpec spec = sim::light_fault_spec();
  const sim::FaultInjector a(spec, 8, 77), b(spec, 8, 77);
  ASSERT_EQ(a.trace().size(), b.trace().size());
  for (std::size_t i = 0; i < a.trace().size(); ++i) {
    EXPECT_EQ(a.trace()[i].kind, b.trace()[i].kind) << i;
    EXPECT_EQ(a.trace()[i].worker, b.trace()[i].worker) << i;
    EXPECT_DOUBLE_EQ(a.trace()[i].start, b.trace()[i].start) << i;
    EXPECT_DOUBLE_EQ(a.trace()[i].duration, b.trace()[i].duration) << i;
  }
}

TEST(Determinism, SupervisedTunerUnderFaultsReproduces) {
  // The whole robustness stack at once: fault injection, whole-job kills,
  // supervised retries with jittered backoff, failure classification.
  // Identical seeds must yield identical trial sequences and ledgers.
  const wl::Workload& workload = wl::workload_by_name("mlp-tabular");
  const auto run = [&] {
    wl::EvaluatorOptions eval_options;
    eval_options.faults = sim::heavy_fault_spec();
    wl::Evaluator evaluator(workload, 88, eval_options);
    wl::EvalSupervisor supervisor(evaluator, wl::RetryPolicy{}, 88);
    wl::SupervisedObjective objective(supervisor);
    core::BoOptions options;
    options.seed = 88;
    options.max_evaluations = 8;
    options.initial_design_size = 4;
    options.surrogate.gp.restarts = 1;
    options.surrogate.gp.adam_iterations = 60;
    options.acq_optimizer.random_candidates = 256;
    core::BoTuner tuner(objective, options);
    const core::TuningResult result = tuner.tune();
    return std::make_pair(result, evaluator.total_spent_seconds());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.first.best_objective, b.first.best_objective);
  EXPECT_DOUBLE_EQ(a.second, b.second);
  ASSERT_EQ(a.first.trials.size(), b.first.trials.size());
  for (std::size_t i = 0; i < a.first.trials.size(); ++i) {
    EXPECT_TRUE(a.first.trials[i].config == b.first.trials[i].config) << i;
    EXPECT_EQ(a.first.trials[i].outcome.attempts,
              b.first.trials[i].outcome.attempts)
        << i;
    EXPECT_EQ(a.first.trials[i].outcome.failure_kind,
              b.first.trials[i].outcome.failure_kind)
        << i;
    EXPECT_DOUBLE_EQ(a.first.trials[i].outcome.spent_seconds,
                     b.first.trials[i].outcome.spent_seconds)
        << i;
  }
}

TEST(Determinism, ObservabilityDoesNotPerturbResults) {
  // The obs layer's core promise: tracing and metrics only *observe*. The
  // same seeded session run with obs off, with tracing on, and with
  // metrics on must produce bit-identical incumbents and byte-identical
  // crash-safe journals (journals serialize every double with %.17g, so a
  // byte comparison is a bit comparison of the whole trial sequence).
  enum class Obs { kOff, kTracing, kMetrics };
  const auto run = [&](Obs mode, const std::string& journal_name) {
    obs::Tracer& tracer = obs::Tracer::instance();
    obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
    if (mode == Obs::kTracing) tracer.start();
    if (mode == Obs::kMetrics) {
      registry.reset();
      registry.enable();
    }
    const std::string journal_path =
        ::testing::TempDir() + "obs_determinism_" + journal_name + ".jsonl";
    std::remove(journal_path.c_str());
    const wl::Workload& workload = wl::workload_by_name("logreg-ads");
    wl::Evaluator evaluator(workload, 99);
    wl::EvaluatorObjective objective(evaluator);
    core::BoOptions options;
    options.seed = 99;
    options.max_evaluations = 10;
    options.initial_design_size = 5;
    options.surrogate.gp.restarts = 1;
    options.surrogate.gp.adam_iterations = 60;
    options.acq_optimizer.random_candidates = 256;
    options.journal_path = journal_path;
    core::BoTuner tuner(objective, options);
    const core::TuningResult result = tuner.tune();
    if (mode == Obs::kTracing) {
      tracer.stop();
      // The trace itself must be non-trivial, or this test proves nothing.
      EXPECT_GT(tracer.event_count(), 50u);
      tracer.clear();
    }
    if (mode == Obs::kMetrics) {
      EXPECT_GT(registry.counter("eval.runs").value(), 0);
      registry.disable();
      registry.reset();
    }
    return std::make_pair(result, util::read_file(journal_path));
  };
  const auto baseline = run(Obs::kOff, "off");
  const auto traced = run(Obs::kTracing, "trace");
  const auto metered = run(Obs::kMetrics, "metrics");

  for (const auto* other : {&traced, &metered}) {
    ASSERT_EQ(baseline.first.trials.size(), other->first.trials.size());
    EXPECT_DOUBLE_EQ(baseline.first.best_objective,
                     other->first.best_objective);
    ASSERT_EQ(baseline.first.incumbent_curve.size(),
              other->first.incumbent_curve.size());
    for (std::size_t i = 0; i < baseline.first.incumbent_curve.size(); ++i) {
      EXPECT_DOUBLE_EQ(baseline.first.incumbent_curve[i],
                       other->first.incumbent_curve[i])
          << "incumbent diverged at trial " << i;
    }
    EXPECT_EQ(baseline.second, other->second) << "journal bytes diverged";
  }
}

// ---- misc utility coverage -------------------------------------------------------

TEST(LogLevels, FilteringRespectsThreshold) {
  static_assert(util::kLogThreshold == util::LogLevel::kInfo);
  testing::internal::CaptureStderr();
  ADML_DEBUG << "debug-line";
  ADML_INFO << "info-line";
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("debug-line"), std::string::npos) << err;
  EXPECT_NE(err.find("info-line"), std::string::npos) << err;
}

TEST(Stopwatch, MeasuresElapsedMonotonically) {
  util::Stopwatch watch;
  const double t1 = watch.elapsed_seconds();
  double t2 = watch.elapsed_seconds();
  EXPECT_GE(t2, t1);
  EXPECT_GE(watch.elapsed_ms(), 0.0);
  watch.reset();
  EXPECT_GE(watch.elapsed_seconds(), 0.0);
}

TEST(GridSearchEdge, BudgetOfOneStillReturnsATrial) {
  const wl::Workload& workload = wl::workload_by_name("logreg-ads");
  wl::Evaluator evaluator(workload, 66);
  wl::EvaluatorObjective objective(evaluator);
  const core::TuningResult result = baselines::grid_search(objective, 1, 66, 2);
  EXPECT_EQ(result.trials.size(), 1u);
}

TEST(AnnealingEdge, SurvivesAllInfeasibleStart) {
  // An annealer whose first draw fails must keep moving (inf current value
  // accepts any finite successor).
  const wl::Workload& workload = wl::workload_by_name("resnet-imagenet");
  wl::Evaluator evaluator(workload, 67);
  wl::EvaluatorObjective objective(evaluator);
  const core::TuningResult result =
      baselines::simulated_annealing(objective, 12, 67);
  EXPECT_EQ(result.trials.size(), 12u);
}

TEST(ClusterEdge, SingleWorkerClusterWorksEverywhere) {
  for (const auto& workload : wl::workload_suite()) {
    wl::Evaluator evaluator(workload, 68);
    conf::Config c = wl::default_expert_config(workload, evaluator.space());
    c.set_int("num_workers", 1);
    c.set_int("num_servers", 1);
    evaluator.space().canonicalize(c);
    const wl::EvalResult r = evaluator.evaluate_ground_truth(c);
    // One worker must always be *runnable* (feasible or a clean failure).
    if (!r.feasible) {
      EXPECT_FALSE(r.failure.empty());
    }
  }
}

}  // namespace
}  // namespace autodml
