// Shared infrastructure for the experiment harnesses in bench/.
//
// Each bench binary regenerates one table/figure of the (reconstructed)
// evaluation: it sweeps methods x workloads x seeds, normalizes against a
// ground-truth oracle, and prints both a human-readable table and CSV rows.
// Replicates run in parallel across a thread pool; every task builds its own
// Evaluator so nothing is shared across threads.
#pragma once

#include <cmath>
#include <functional>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/baseline_tuners.h"
#include "config/sampler.h"
#include "core/bo_tuner.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workloads/objective_adapter.h"

namespace autodml::bench {

/// BO options tuned for bench throughput (slightly cheaper GP refits than
/// the library defaults; quality difference is negligible at these budgets).
inline core::BoOptions bench_bo_options(std::uint64_t seed,
                                        int max_evaluations) {
  core::BoOptions options;
  options.seed = seed;
  options.max_evaluations = max_evaluations;
  options.initial_design_size = 8;
  options.surrogate.gp.restarts = 1;
  options.surrogate.gp.adam_iterations = 80;
  options.surrogate.hyperopt_every = 2;
  options.acq_optimizer.random_candidates = 384;
  return options;
}

/// Ground-truth oracle: the best noise-free objective over a deterministic
/// space-filling sweep (plus the expert default). Not a true global optimum,
/// but a stable normalization reference shared by all methods.
struct Oracle {
  conf::Config config;
  double objective = std::numeric_limits<double>::infinity();
};

inline Oracle compute_oracle(const wl::Workload& workload,
                             wl::Objective objective_kind,
                             std::size_t sweep_size = 300) {
  wl::EvaluatorOptions options;
  options.objective = objective_kind;
  wl::Evaluator evaluator(workload, /*seed=*/424242, options);
  util::Rng rng(31337);
  std::vector<conf::Config> sweep =
      conf::latin_hypercube(evaluator.space(), sweep_size, rng);
  sweep.push_back(wl::default_expert_config(workload, evaluator.space()));
  Oracle oracle;
  for (const conf::Config& c : sweep) {
    const wl::EvalResult r = evaluator.evaluate_ground_truth(c);
    const double value = r.objective_value(objective_kind);
    if (value < oracle.objective) {
      oracle.objective = value;
      oracle.config = c;
    }
  }
  return oracle;
}

/// One tuning replicate, fully self-contained (own evaluator + ledger).
struct ReplicateResult {
  core::TuningResult tuning;
  double best_ground_truth = std::numeric_limits<double>::infinity();
  double search_cost_hours = 0.0;
  double search_cost_usd = 0.0;
  std::size_t runs = 0;
  double wall_seconds = 0.0;  // host time, for the overhead experiment
};

using MethodFn = std::function<core::TuningResult(
    core::ObjectiveFunction&, int max_evaluations, std::uint64_t seed)>;

inline ReplicateResult run_replicate(const wl::Workload& workload,
                                     wl::Objective objective_kind,
                                     const MethodFn& method,
                                     int max_evaluations, std::uint64_t seed) {
  wl::EvaluatorOptions options;
  options.objective = objective_kind;
  wl::Evaluator evaluator(workload, seed, options);
  wl::EvaluatorObjective objective(evaluator);
  ReplicateResult out;
  util::Stopwatch watch;
  out.tuning = method(objective, max_evaluations, seed);
  out.wall_seconds = watch.elapsed_seconds();
  out.search_cost_hours = evaluator.total_spent_seconds() / 3600.0;
  out.search_cost_usd = evaluator.total_spent_usd();
  out.runs = evaluator.num_runs();
  if (out.tuning.found_feasible()) {
    const wl::EvalResult truth =
        evaluator.evaluate_ground_truth(out.tuning.best_config);
    out.best_ground_truth = truth.objective_value(objective_kind);
  }
  return out;
}

/// Run fn(i) for i in [0,n) across a pool sized to the host.
inline void parallel_tasks(std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  static util::ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
  util::parallel_for(pool, n, fn);
}

/// Print an aligned table plus machine-readable CSV (prefixed lines).
inline void print_table(const std::string& title,
                        const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows) {
  std::cout << "\n=== " << title << " ===\n"
            << util::render_table(header, rows);
  std::cout << "csv," << util::join(header, ",") << "\n";
  for (const auto& row : rows) std::cout << "csv," << util::join(row, ",") << "\n";
  std::cout.flush();
}

inline std::string fmt_ratio(double v) { return util::fmt(v, 3); }

}  // namespace autodml::bench
