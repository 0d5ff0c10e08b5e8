// Run every tuner in the registry on one workload with the same budget and
// print the league table: final config quality, speedup over the hand
// default, and what the search itself cost in simulated cluster hours.
//
//   ./compare_baselines [--workload=mlp-tabular] [--evals=25] [--seed=11]
#include <cstdio>

#include "baselines/baseline_tuners.h"
#include "util/arg_parse.h"
#include "util/string_util.h"
#include "workloads/objective_adapter.h"

using namespace autodml;

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const std::string name = args.get("workload", "mlp-tabular");
  const int evals = static_cast<int>(args.get_int("evals", 25));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 11));

  const wl::Workload& workload = wl::workload_by_name(name);
  std::printf("workload: %s, budget: %d evaluations, seed: %llu\n",
              workload.name.c_str(), evals,
              static_cast<unsigned long long>(seed));

  wl::Evaluator probe(workload, seed);
  const double default_tta =
      probe
          .evaluate_ground_truth(
              wl::default_expert_config(workload, probe.space()))
          .tta_seconds;
  std::printf("expert default TTA: %s h\n\n",
              util::fmt(default_tta / 3600.0).c_str());

  std::vector<std::vector<std::string>> rows;
  for (const auto& entry : baselines::tuner_registry()) {
    wl::Evaluator evaluator(workload, seed);
    wl::EvaluatorObjective objective(evaluator);
    const core::TuningResult result = entry.fn(objective, evals, seed);
    if (!result.found_feasible()) {
      rows.push_back({entry.name, "-", "-", "-"});
      continue;
    }
    const wl::EvalResult truth =
        evaluator.evaluate_ground_truth(result.best_config);
    rows.push_back({entry.name, util::fmt(truth.tta_seconds / 3600.0),
                    util::fmt(default_tta / truth.tta_seconds, 3),
                    util::fmt(evaluator.total_spent_seconds() / 3600.0)});
  }
  std::fputs(util::render_table({"method", "tuned-TTA-h", "speedup",
                                 "search-hours"},
                                rows)
                 .c_str(),
             stdout);
  return 0;
}
