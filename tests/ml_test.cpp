#include <gtest/gtest.h>

#include <cmath>

#include "ml/convergence.h"
#include "ml/curve_fit.h"
#include "ml/micro_trainer.h"

namespace autodml::ml {
namespace {

StatModelParams default_params() {
  StatModelParams p;
  p.eval_noise_sigma = 0.0;  // deterministic for property tests
  return p;
}

StatOutcome eval(const StatModelParams& p, double batch, double staleness,
                 double lr,
                 sim::Compression comp = sim::Compression::kNone) {
  util::Rng rng(1);
  return samples_to_target(p, batch, staleness, lr, comp, rng);
}

// ---- effective batch ---------------------------------------------------------

TEST(EffectiveBatch, BspAggregatesWorkers) {
  EXPECT_DOUBLE_EQ(effective_batch(sim::SyncMode::kBsp, 8, 32), 256.0);
  EXPECT_DOUBLE_EQ(effective_batch(sim::SyncMode::kAsp, 8, 32), 32.0);
  EXPECT_DOUBLE_EQ(effective_batch(sim::SyncMode::kSsp, 8, 32), 32.0);
  EXPECT_THROW(effective_batch(sim::SyncMode::kBsp, 0, 32),
               std::invalid_argument);
}

// ---- samples_to_target ----------------------------------------------------------

TEST(StatModel, SamplesGrowBeyondCriticalBatch) {
  const StatModelParams p = default_params();
  const double lr = p.base_lr;
  // At the optimum LR for each batch, samples needed grow with batch.
  const auto at = [&](double batch) {
    const StatOutcome o = eval(p, batch, 0.0, 1e-9, sim::Compression::kNone);
    // use lr_optimal reported to re-evaluate at the optimum
    return eval(p, batch, 0.0, o.lr_optimal).samples_to_target;
  };
  (void)lr;
  EXPECT_LT(at(32), at(512));
  EXPECT_LT(at(512), at(8192));
}

TEST(StatModel, SmallBatchNearBaseSamples) {
  const StatModelParams p = default_params();
  const StatOutcome o = eval(p, 32, 0.0, p.base_lr);
  EXPECT_NEAR(o.samples_to_target, p.base_samples * (1.0 + 32.0 / 512.0),
              p.base_samples * 0.01);
}

TEST(StatModel, StalenessPenaltyMonotone) {
  const StatModelParams p = default_params();
  double prev = 0.0;
  for (double s : {0.0, 1.0, 2.0, 4.0, 8.0}) {
    const StatOutcome o = eval(p, 64, s, eval(p, 64, s, 1e-9).lr_optimal);
    EXPECT_GT(o.samples_to_target, prev);
    prev = o.samples_to_target;
  }
}

TEST(StatModel, LrPenaltyIsCupShaped) {
  const StatModelParams p = default_params();
  const double lr_opt = eval(p, 64, 0.0, 1e-9).lr_optimal;
  const double at_opt = eval(p, 64, 0.0, lr_opt).samples_to_target;
  const double low = eval(p, 64, 0.0, lr_opt / 10.0).samples_to_target;
  const double high = eval(p, 64, 0.0, lr_opt * 5.0).samples_to_target;
  EXPECT_GT(low, at_opt);
  EXPECT_GT(high, at_opt);
}

TEST(StatModel, DivergesAboveThreshold) {
  const StatModelParams p = default_params();
  const double lr_opt = eval(p, 64, 0.0, 1e-9).lr_optimal;
  const StatOutcome diverged =
      eval(p, 64, 0.0, lr_opt * p.divergence_margin * 1.5);
  EXPECT_TRUE(diverged.diverged);
  const StatOutcome fine = eval(p, 64, 0.0, lr_opt * p.divergence_margin * 0.9);
  EXPECT_FALSE(fine.diverged);
}

TEST(StatModel, StalenessShrinksOptimalLr) {
  const StatModelParams p = default_params();
  const double fresh = eval(p, 64, 0.0, 1e-9).lr_optimal;
  const double stale = eval(p, 64, 8.0, 1e-9).lr_optimal;
  EXPECT_LT(stale, fresh);
}

TEST(StatModel, LrOptimalScalesWithBatchUntilCap) {
  const StatModelParams p = default_params();
  const double b32 = eval(p, 32, 0.0, 1e-9).lr_optimal;
  const double b128 = eval(p, 128, 0.0, 1e-9).lr_optimal;
  const double b100000 = eval(p, 100000, 0.0, 1e-9).lr_optimal;
  EXPECT_NEAR(b128 / b32, 4.0, 0.01);
  EXPECT_NEAR(b100000, p.base_lr * p.lr_scaling_cap, 1e-9);
}

TEST(StatModel, CompressionCostsSamples) {
  const StatModelParams p = default_params();
  const double lr_opt = eval(p, 64, 0.0, 1e-9).lr_optimal;
  const double none =
      eval(p, 64, 0.0, lr_opt, sim::Compression::kNone).samples_to_target;
  const double topk =
      eval(p, 64, 0.0, lr_opt, sim::Compression::kTopK).samples_to_target;
  EXPECT_NEAR(topk / none, 1.22, 0.01);
}

TEST(StatModel, NoiseIsMultiplicativeAndSeeded) {
  StatModelParams p = default_params();
  p.eval_noise_sigma = 0.1;
  util::Rng rng1(5), rng2(5), rng3(6);
  const double a =
      samples_to_target(p, 64, 0, p.base_lr, sim::Compression::kNone, rng1)
          .samples_to_target;
  const double b =
      samples_to_target(p, 64, 0, p.base_lr, sim::Compression::kNone, rng2)
          .samples_to_target;
  const double c =
      samples_to_target(p, 64, 0, p.base_lr, sim::Compression::kNone, rng3)
          .samples_to_target;
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(StatModel, InputValidation) {
  const StatModelParams p = default_params();
  util::Rng rng(1);
  EXPECT_THROW(
      samples_to_target(p, 0.5, 0, 0.1, sim::Compression::kNone, rng),
      std::invalid_argument);
  EXPECT_THROW(
      samples_to_target(p, 64, -1, 0.1, sim::Compression::kNone, rng),
      std::invalid_argument);
  EXPECT_THROW(
      samples_to_target(p, 64, 0, 0.0, sim::Compression::kNone, rng),
      std::invalid_argument);
  StatModelParams bad = p;
  bad.metric_ceiling = bad.target_metric;
  EXPECT_THROW(
      samples_to_target(bad, 64, 0, 0.1, sim::Compression::kNone, rng),
      std::invalid_argument);
}

// ---- metric_at -------------------------------------------------------------------

TEST(MetricCurve, EndpointsExact) {
  const StatModelParams p = default_params();
  const double target_samples = 1e6;
  EXPECT_NEAR(metric_at(p, 0.0, target_samples), p.initial_metric, 1e-12);
  EXPECT_NEAR(metric_at(p, target_samples, target_samples), p.target_metric,
              1e-9);
}

TEST(MetricCurve, MonotoneAndBoundedByCeiling) {
  const StatModelParams p = default_params();
  double prev = -1.0;
  for (double s = 0.0; s <= 5e6; s += 2.5e5) {
    const double m = metric_at(p, s, 1e6);
    EXPECT_GT(m, prev);
    EXPECT_LT(m, p.metric_ceiling);
    prev = m;
  }
}

// ---- curve fitting ------------------------------------------------------------------

TEST(CurveFit, RecoversSyntheticPowerLaw) {
  const StatModelParams p = default_params();
  const double target_samples = 2e6;
  std::vector<double> samples, metric;
  for (int i = 1; i <= 20; ++i) {
    const double s = target_samples * 0.05 * i;  // covers up to the target
    samples.push_back(s);
    metric.push_back(metric_at(p, s, target_samples));
  }
  const CurveFitResult fit = fit_learning_curve(samples, metric);
  ASSERT_TRUE(fit.ok);
  EXPECT_LT(fit.rmse, 1e-3);
  const double predicted = predict_samples_to_reach(fit, p.target_metric);
  EXPECT_NEAR(predicted, target_samples, target_samples * 0.15);
}

TEST(CurveFit, ExtrapolatesFromEarlyPrefix) {
  // Only the first 30% of the curve is observed; the prediction should
  // still be the right order of magnitude.
  const StatModelParams p = default_params();
  const double target_samples = 5e6;
  std::vector<double> samples, metric;
  for (int i = 1; i <= 12; ++i) {
    const double s = target_samples * 0.025 * i;
    samples.push_back(s);
    metric.push_back(metric_at(p, s, target_samples));
  }
  const CurveFitResult fit = fit_learning_curve(samples, metric);
  ASSERT_TRUE(fit.ok);
  const double predicted = predict_samples_to_reach(fit, p.target_metric);
  EXPECT_GT(predicted, target_samples * 0.3);
  EXPECT_LT(predicted, target_samples * 4.0);
}

TEST(CurveFit, UnreachableTargetIsInfinity) {
  // Flat curve that saturates visibly below the target.
  std::vector<double> samples, metric;
  for (int i = 1; i <= 15; ++i) {
    const double s = 1e5 * i;
    samples.push_back(s);
    metric.push_back(0.5 - 0.4 / (1.0 + s / 1e5));  // ceiling 0.5
  }
  const CurveFitResult fit = fit_learning_curve(samples, metric);
  ASSERT_TRUE(fit.ok);
  EXPECT_TRUE(std::isinf(predict_samples_to_reach(fit, 0.9)));
}

TEST(CurveFit, RejectsDegenerateInput) {
  EXPECT_FALSE(fit_learning_curve(std::vector<double>{1, 2, 3},
                                  std::vector<double>{1, 2, 3})
                   .ok);  // too few
  EXPECT_FALSE(fit_learning_curve(std::vector<double>{1, 2, 2, 3},
                                  std::vector<double>{1, 2, 3, 4})
                   .ok);  // non-increasing samples
  EXPECT_FALSE(fit_learning_curve(std::vector<double>{1, 2},
                                  std::vector<double>{1})
                   .ok);  // mismatched
}

TEST(CurveFit, CurveValueMatchesFitAtData) {
  std::vector<double> samples, metric;
  for (int i = 1; i <= 10; ++i) {
    samples.push_back(1e4 * i);
    metric.push_back(0.9 - 0.8 * std::pow(1.0 + samples.back() / 3e4, -1.3));
  }
  const CurveFitResult fit = fit_learning_curve(samples, metric);
  ASSERT_TRUE(fit.ok);
  // rmse * sqrt(n) bounds every residual of the fitted curve at the data.
  EXPECT_LT(fit.rmse * std::sqrt(static_cast<double>(samples.size())), 0.02);
}

TEST(CurveFit, PredictBelowFloorIsZero) {
  std::vector<double> samples, metric;
  for (int i = 1; i <= 8; ++i) {
    samples.push_back(1e3 * i);
    metric.push_back(0.2 + 0.1 * (1.0 - std::exp(-samples.back() / 3e3)));
  }
  const CurveFitResult fit = fit_learning_curve(samples, metric);
  ASSERT_TRUE(fit.ok);
  EXPECT_DOUBLE_EQ(predict_samples_to_reach(fit, -1.0), 0.0);
}

// ---- micro trainer (real SGD ground truth) ------------------------------------------

TEST(MicroTrainer, ReachesTargetWithoutDelay) {
  MicroTrainerConfig config;
  config.seed = 3;
  const MicroTrainerResult r = run_micro_trainer(config);
  EXPECT_TRUE(r.reached_target);
  EXPECT_FALSE(r.diverged);
  EXPECT_GT(r.steps, 0);
}

TEST(MicroTrainer, GradientDelaySlowsConvergence) {
  // The core claim behind the staleness penalty: steps-to-target increases
  // with gradient delay (averaged over seeds to tame SGD noise).
  const auto mean_steps = [&](int delay) {
    double total = 0.0;
    int reached = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      MicroTrainerConfig config;
      config.seed = seed;
      config.gradient_delay = delay;
      config.class_separation = 2.8;
      config.learning_rate = 0.1;
      config.eval_every = 10;
      config.batch_size = 4;
      const MicroTrainerResult r = run_micro_trainer(config);
      if (r.reached_target) {
        total += r.steps;
        ++reached;
      } else {
        total += config.max_steps;
      }
    }
    EXPECT_GT(reached, 0) << "delay " << delay;
    return total / 5.0;
  };
  const double fresh = mean_steps(0);
  const double stale = mean_steps(128);
  EXPECT_GT(stale, fresh);
}

TEST(MicroTrainer, HugeLrDiverges) {
  MicroTrainerConfig config;
  config.learning_rate = 1e4;
  config.class_separation = 0.5;
  config.max_steps = 5000;
  const MicroTrainerResult r = run_micro_trainer(config);
  EXPECT_FALSE(r.reached_target && !r.diverged && r.steps < 100);
}

TEST(MicroTrainer, LargerBatchFewerSteps) {
  const auto mean_steps = [&](int batch) {
    double total = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      MicroTrainerConfig config;
      config.seed = seed;
      config.batch_size = batch;
      config.class_separation = 2.8;
      config.learning_rate = 0.1;
      config.eval_every = 10;
      const MicroTrainerResult r = run_micro_trainer(config);
      total += r.reached_target ? r.steps : config.max_steps;
    }
    return total / 5.0;
  };
  EXPECT_GT(mean_steps(1), mean_steps(32));
}

TEST(MicroTrainer, DeterministicGivenSeed) {
  MicroTrainerConfig config;
  config.seed = 11;
  const MicroTrainerResult a = run_micro_trainer(config);
  const MicroTrainerResult b = run_micro_trainer(config);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_DOUBLE_EQ(a.final_accuracy, b.final_accuracy);
}

TEST(MicroTrainer, RejectsBadConfig) {
  MicroTrainerConfig config;
  config.batch_size = 0;
  EXPECT_THROW(run_micro_trainer(config), std::invalid_argument);
}

}  // namespace
}  // namespace autodml::ml
