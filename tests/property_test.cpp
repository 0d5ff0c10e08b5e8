// Randomized property tests: invariants that must hold across broad sweeps
// of generated inputs, complementing the example-based unit suites.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "gp/gp.h"
#include "ml/convergence.h"
#include "ml/curve_fit.h"
#include "sim/flow_network.h"
#include "workloads/evaluator.h"
#include "workloads/workload.h"

namespace autodml {
namespace {

// ---- flow network: conservation and termination ---------------------------------

TEST(FlowNetworkProperty, RandomScenariosDeliverEveryFlow) {
  for (std::uint64_t scenario = 0; scenario < 20; ++scenario) {
    util::Rng rng(100 + scenario);
    sim::EventQueue queue;
    sim::FlowNetwork net(queue);
    sim::StarFabric fabric(queue, net);
    const std::size_t nodes = 2 + rng.index(6);
    for (std::size_t n = 0; n < nodes; ++n) {
      fabric.add_node(rng.uniform(1e6, 1e9));
    }
    const int flows = 1 + static_cast<int>(rng.index(30));
    int completed = 0;
    for (int f = 0; f < flows; ++f) {
      fabric.send(rng.index(nodes), rng.index(nodes),
                  rng.uniform(0.0, 5e6), rng.uniform(0.0, 0.01),
                  [&] { ++completed; });
    }
    std::size_t executed = 0;
    while (executed < 200000 && queue.step()) ++executed;
    EXPECT_EQ(completed, flows) << "scenario " << scenario;
    EXPECT_LT(executed, 200000u);
  }
}

TEST(FlowNetworkProperty, CompletionTimeLowerBoundedBySerialization) {
  // No flow can beat bytes/min-link-capacity + latency.
  for (std::uint64_t scenario = 0; scenario < 15; ++scenario) {
    util::Rng rng(300 + scenario);
    sim::EventQueue queue;
    sim::FlowNetwork net(queue);
    sim::StarFabric fabric(queue, net);
    const double cap_a = rng.uniform(1e6, 1e8);
    const double cap_b = rng.uniform(1e6, 1e8);
    const std::size_t a = fabric.add_node(cap_a);
    const std::size_t b = fabric.add_node(cap_b);
    const double bytes = rng.uniform(1e4, 1e7);
    const double latency = rng.uniform(0.0, 0.02);
    double done_at = -1.0;
    fabric.send(a, b, bytes, latency, [&] { done_at = queue.now(); });
    while (queue.step()) {}
    const double bound = latency + bytes * 8.0 / std::min(cap_a, cap_b);
    EXPECT_GE(done_at, bound * (1.0 - 1e-9)) << scenario;
    EXPECT_NEAR(done_at, bound, bound * 1e-6 + 1e-9) << scenario;
  }
}

// ---- GP: posterior sanity on random data ------------------------------------------

TEST(GpProperty, PosteriorInterpolatesWithinNoiseEnvelope) {
  for (std::uint64_t trial = 0; trial < 5; ++trial) {
    util::Rng rng(500 + trial);
    const std::size_t n = 10 + rng.index(15);
    const std::size_t dim = 1 + rng.index(3);
    math::Matrix x(n, dim);
    math::Vec y(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < dim; ++d) x(i, d) = rng.uniform();
      y[i] = std::sin(3.0 * x(i, 0)) + 0.05 * rng.normal();
    }
    gp::GpOptions options;
    options.restarts = 1;
    options.adam_iterations = 60;
    gp::GaussianProcess model(std::make_unique<gp::Matern52Ard>(dim), options);
    model.fit(x, y, rng);
    const double noise_sd = std::sqrt(model.noise_variance());
    for (std::size_t i = 0; i < n; ++i) {
      const gp::GpPrediction p = model.predict(x.row(i));
      EXPECT_GE(p.variance, -1e-12);
      // Posterior mean should sit within a few noise/posterior sds.
      const double slack = 4.0 * (noise_sd + std::sqrt(p.variance)) + 0.15;
      EXPECT_NEAR(p.mean, y[i], slack) << "trial " << trial << " point " << i;
    }
  }
}

TEST(GpProperty, VarianceNeverNegativeOnRandomQueries) {
  util::Rng rng(700);
  math::Matrix x(12, 2);
  math::Vec y(12);
  for (std::size_t i = 0; i < 12; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = rng.normal();
  }
  gp::GaussianProcess model(std::make_unique<gp::SquaredExponentialArd>(2));
  model.fit(x, y, rng);
  for (int q = 0; q < 300; ++q) {
    const math::Vec probe{rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)};
    EXPECT_GE(model.predict(probe).variance, -1e-12);
  }
}

// ---- convergence model: global monotonicity sweeps ----------------------------------

TEST(StatModelProperty, MonotoneInStalenessEverywhere) {
  util::Rng param_rng(900);
  for (int trial = 0; trial < 25; ++trial) {
    ml::StatModelParams p;
    p.eval_noise_sigma = 0.0;
    p.critical_batch = param_rng.uniform(128, 8192);
    p.staleness_coeff = param_rng.uniform(0.01, 0.3);
    p.staleness_power = param_rng.uniform(1.0, 1.5);
    const double batch = param_rng.uniform(1, 1024);
    util::Rng rng(1);
    double prev = 0.0;
    for (double s : {0.0, 2.0, 8.0, 32.0, 128.0}) {
      const double lr = ml::samples_to_target(p, batch, s, 1e-9,
                                              sim::Compression::kNone, rng)
                            .lr_optimal;
      const auto out = ml::samples_to_target(p, batch, s, lr,
                                             sim::Compression::kNone, rng);
      ASSERT_FALSE(out.diverged);
      EXPECT_GT(out.samples_to_target, prev) << "trial " << trial;
      prev = out.samples_to_target;
    }
  }
}

TEST(StatModelProperty, MetricCurveMonotoneForRandomParams) {
  util::Rng rng(950);
  for (int trial = 0; trial < 30; ++trial) {
    ml::StatModelParams p;
    p.initial_metric = rng.uniform(0.0, 0.3);
    p.target_metric = rng.uniform(0.6, 0.9);
    p.metric_ceiling = p.target_metric + rng.uniform(0.01, 0.1);
    p.curve_gamma = rng.uniform(0.8, 2.5);
    const double total = rng.uniform(1e4, 1e8);
    double prev = -1.0;
    for (int i = 0; i <= 40; ++i) {
      const double s = total * 1.5 * i / 40.0;
      const double m = ml::metric_at(p, s, total);
      EXPECT_GT(m, prev);
      EXPECT_LE(m, p.metric_ceiling);
      prev = m;
    }
    EXPECT_NEAR(ml::metric_at(p, total, total), p.target_metric, 1e-6);
  }
}

TEST(CurveFitProperty, RecoversRandomCurvesFromPrefix) {
  util::Rng rng(980);
  int good = 0;
  const int trials = 15;
  for (int trial = 0; trial < trials; ++trial) {
    ml::StatModelParams p;
    p.curve_gamma = rng.uniform(1.0, 2.0);
    const double total = rng.uniform(1e5, 1e7);
    std::vector<double> samples, metric;
    for (int i = 1; i <= 15; ++i) {
      const double s = total * 0.06 * i;  // up to 90% of the way
      samples.push_back(s);
      metric.push_back(ml::metric_at(p, s, total));
    }
    const auto fit = ml::fit_learning_curve(samples, metric);
    if (!fit.ok) continue;
    const double predicted =
        ml::predict_samples_to_reach(fit, p.target_metric);
    if (std::isfinite(predicted) && predicted > total * 0.4 &&
        predicted < total * 2.5) {
      ++good;
    }
  }
  // Extrapolation is inherently noisy; demand a solid majority.
  EXPECT_GE(good, trials * 2 / 3);
}

// ---- evaluator: black-box contract over random configurations ------------------------

class EvaluatorFuzzTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EvaluatorFuzzTest, ContractHoldsOnRandomConfigs) {
  const wl::Workload& workload = wl::workload_by_name(GetParam());
  wl::Evaluator evaluator(workload, 77);
  util::Rng rng(88);
  for (int i = 0; i < 60; ++i) {
    const conf::Config c = evaluator.space().sample_uniform(rng);
    const wl::EvalResult r = evaluator.start(c)->result();
    // Contract: spent time always positive and charged; objective finite
    // iff the run is feasible and complete; failures carry a reason.
    EXPECT_GT(r.spent_seconds, 0.0);
    if (r.feasible) {
      EXPECT_TRUE(std::isfinite(r.tta_seconds));
      EXPECT_GT(r.tta_seconds, 0.0);
      EXPECT_GT(r.samples_needed, 0.0);
      EXPECT_NEAR(r.cost_usd, r.tta_seconds / 3600.0 * r.usd_per_hour,
                  1e-6 * std::max(1.0, r.cost_usd));
    } else {
      EXPECT_FALSE(r.failure.empty());
      EXPECT_TRUE(std::isinf(
          r.objective_value(wl::Objective::kTimeToAccuracy)));
    }
  }
  EXPECT_EQ(evaluator.num_runs(), 60u);
  EXPECT_GT(evaluator.total_spent_seconds(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, EvaluatorFuzzTest,
                         ::testing::Values("logreg-ads", "mf-recsys",
                                           "mlp-tabular", "cnn-cifar",
                                           "resnet-imagenet",
                                           "word2vec-text"));

// ---- staleness conversion -------------------------------------------------------------

TEST(StalenessUpdates, UnitsAndEdgeCases) {
  EXPECT_DOUBLE_EQ(ml::staleness_updates(sim::SyncMode::kBsp, 5.0, 16), 0.0);
  EXPECT_DOUBLE_EQ(ml::staleness_updates(sim::SyncMode::kAsp, 1.5, 8), 12.0);
  EXPECT_DOUBLE_EQ(ml::staleness_updates(sim::SyncMode::kSsp, 2.0, 4), 8.0);
  EXPECT_THROW(ml::staleness_updates(sim::SyncMode::kAsp, -1.0, 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace autodml
