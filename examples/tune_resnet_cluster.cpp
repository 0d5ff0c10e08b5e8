// Cloud provisioning scenario: pick the cluster and system configuration
// for an ImageNet-scale training job under two different objectives —
// fastest time-to-accuracy versus cheapest cost-to-accuracy — and show the
// trade-off between the two tuned configurations.
//
//   ./tune_resnet_cluster [--workload=resnet-imagenet] [--evals=25] [--seed=3]
#include <cstdio>

#include "core/bo_tuner.h"
#include "core/sensitivity.h"
#include "util/arg_parse.h"
#include "util/string_util.h"
#include "workloads/objective_adapter.h"

using namespace autodml;

namespace {

struct TunedOutcome {
  conf::Config config;
  wl::EvalResult truth;
};

// The evaluator is created by the caller and must outlive the returned
// configs (they reference its configuration space).
TunedOutcome tune_for(wl::Evaluator& evaluator, int evals,
                      std::uint64_t seed) {
  wl::EvaluatorObjective objective(evaluator);
  core::BoOptions options;
  options.seed = seed;
  options.max_evaluations = evals;
  core::BoTuner tuner(objective, options);
  const core::TuningResult result = tuner.tune();
  if (!result.found_feasible()) {
    throw std::runtime_error("no feasible configuration found");
  }
  return {result.best_config,
          evaluator.evaluate_ground_truth(result.best_config)};
}

void describe(const char* label, const TunedOutcome& outcome) {
  std::printf("%s\n  %s\n", label, outcome.config.to_string().c_str());
  std::printf("  time-to-accuracy: %s h   cost: $%s   cluster rate: $%s/h\n",
              util::fmt(outcome.truth.tta_seconds / 3600.0).c_str(),
              util::fmt(outcome.truth.cost_usd).c_str(),
              util::fmt(outcome.truth.usd_per_hour).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const std::string name = args.get("workload", "resnet-imagenet");
  const int evals = static_cast<int>(args.get_int("evals", 25));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 3));

  const wl::Workload& workload = wl::workload_by_name(name);
  std::printf("workload: %s (%s)\n\n", workload.name.c_str(),
              workload.description.c_str());

  wl::EvaluatorOptions time_options;
  time_options.objective = wl::Objective::kTimeToAccuracy;
  wl::Evaluator time_evaluator(workload, seed, time_options);
  const TunedOutcome fastest = tune_for(time_evaluator, evals, seed);
  describe("fastest configuration (time objective):", fastest);

  wl::EvaluatorOptions cost_options;
  cost_options.objective = wl::Objective::kCostToAccuracy;
  wl::Evaluator cost_evaluator(workload, seed + 1, cost_options);
  const TunedOutcome cheapest = tune_for(cost_evaluator, evals, seed + 1);
  describe("\ncheapest configuration (cost objective):", cheapest);

  std::printf(
      "\ntrade-off: the cheap config is %.2fx slower but %.2fx cheaper\n",
      cheapest.truth.tta_seconds / fastest.truth.tta_seconds,
      fastest.truth.cost_usd / cheapest.truth.cost_usd);
  return 0;
}
