// Experiment R-F13 (extension) — synchronous parallel tuning.
//
// Rounds of `q` asks held outstanding on one BoTuner session (each
// conditioned on kriging-believer fantasies of the others) let `q`
// configurations train concurrently on separate clusters; the search's
// wall-clock per round is then the slowest run instead of the sum. Sweep
// q at a fixed total evaluation count; round 0 is a `q`-point design. Expected shape: wall-clock drops
// ~q-fold while final quality degrades only mildly (fantasies lose some
// sequential information). Rounds remain straggler-bound; bench_async
// (R-A14) measures the asynchronous pipeline that removes the barrier.
#include "baselines/parallel_bo.h"
#include "bench_common.h"
#include "util/arg_parse.h"

using namespace autodml;

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const int seeds = static_cast<int>(args.get_int("seeds", 3));
  const int total_evals = static_cast<int>(args.get_int("evals", 24));
  const std::string workload_name = args.get("workload", "mlp-tabular");
  const wl::Workload& workload = wl::workload_by_name(workload_name);
  const bench::Oracle oracle =
      bench::compute_oracle(workload, wl::Objective::kTimeToAccuracy);

  const std::vector<int> batch_sizes = {1, 2, 4, 8};
  std::vector<std::vector<std::string>> rows(batch_sizes.size());
  bench::parallel_tasks(batch_sizes.size(), [&](std::size_t b) {
    const int q = batch_sizes[b];
    const int rounds = total_evals / q;
    std::vector<double> ratios, wall_hours, spent_hours;
    for (int s = 0; s < seeds; ++s) {
      const std::uint64_t seed = 2600 + s;
      wl::Evaluator evaluator(workload, seed);
      wl::EvaluatorObjective objective(evaluator);
      core::BoOptions options;
      options.initial_design_size = q;
      options.max_evaluations = q * rounds;
      options.seed = seed;
      options.surrogate.gp.restarts = 1;
      const baselines::ParallelBoResult result =
          baselines::parallel_bo(objective, options, q);
      wall_hours.push_back(result.wall_clock_seconds / 3600.0);
      spent_hours.push_back(evaluator.total_spent_seconds() / 3600.0);
      if (result.tuning.found_feasible()) {
        const wl::EvalResult truth =
            evaluator.evaluate_ground_truth(result.tuning.best_config);
        ratios.push_back(truth.feasible
                             ? truth.tta_seconds / oracle.objective
                             : 99.0);
      } else {
        ratios.push_back(99.0);
      }
    }
    rows[b] = {std::to_string(q), std::to_string(rounds),
               bench::fmt_ratio(util::mean(ratios)),
               util::fmt(util::mean(wall_hours)),
               util::fmt(util::mean(spent_hours))};
  });

  bench::print_table(
      "R-F13  " + workload_name + "  parallel BO at " +
          std::to_string(total_evals) + " total evaluations (seeds=" +
          std::to_string(seeds) + ")",
      {"batch-q", "rounds", "vs-oracle", "search-wall-hours",
       "search-cpu-hours"},
      rows);
  return 0;
}
