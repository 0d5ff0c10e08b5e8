// Quickstart: tune the system configuration of one distributed training job.
//
//   ./quickstart [--workload=logreg-ads] [--evals=25] [--seed=7]
//
// Walks the canonical AutoDML flow: pick a workload, build its evaluator,
// wrap it in the tuner's objective interface, run Bayesian optimization,
// and compare the tuned configuration against the hand default.
#include <cstdio>

#include "baselines/baseline_tuners.h"
#include "core/bo_tuner.h"
#include "util/arg_parse.h"
#include "util/string_util.h"
#include "workloads/objective_adapter.h"

using namespace autodml;

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const std::string workload_name = args.get("workload", "logreg-ads");
  const int evals = static_cast<int>(args.get_int("evals", 25));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

  const wl::Workload& workload = wl::workload_by_name(workload_name);
  std::printf("workload: %s (%s)\n", workload.name.c_str(),
              workload.description.c_str());

  wl::Evaluator evaluator(workload, seed);
  wl::EvaluatorObjective objective(evaluator);

  // The hand default a practitioner might start from.
  const conf::Config expert =
      wl::default_expert_config(workload, evaluator.space());
  const wl::EvalResult expert_result = evaluator.evaluate_ground_truth(expert);
  std::printf("default config: %s\n", expert.to_string().c_str());
  std::printf("  time-to-accuracy: %s h\n",
              util::fmt(expert_result.tta_seconds / 3600.0).c_str());

  // Tune.
  core::BoOptions options;
  options.seed = seed;
  options.max_evaluations = evals;
  core::BoTuner tuner(objective, options);
  const core::TuningResult result = tuner.tune();

  if (!result.found_feasible()) {
    std::printf("no feasible configuration found in %d evaluations\n", evals);
    return 1;
  }
  const wl::EvalResult best_truth =
      evaluator.evaluate_ground_truth(result.best_config);
  std::printf("tuned config (after %zu evaluations):\n  %s\n",
              result.trials.size(), result.best_config.to_string().c_str());
  std::printf("  time-to-accuracy: %s h (%.2fx speedup over default)\n",
              util::fmt(best_truth.tta_seconds / 3600.0).c_str(),
              expert_result.tta_seconds / best_truth.tta_seconds);
  std::printf("  search cost: %s simulated hours across %zu runs\n",
              util::fmt(evaluator.total_spent_seconds() / 3600.0).c_str(),
              evaluator.num_runs());
  return 0;
}
