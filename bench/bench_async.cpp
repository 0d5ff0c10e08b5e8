// Experiment R-A14 — asynchronous evaluation pipeline wall-clock.
//
// The async executor keeps up to `q` evaluations in flight, proposing
// against kriging-believer fantasies of the pending points while the pool
// works. On an evaluation-bound objective the search's wall-clock should
// then collapse ~q-fold: the critical path becomes ceil(N/q) evaluation
// latencies plus the (overlapped) proposal work, instead of N of each in
// strict alternation. This bench measures that on a thread-safe synthetic
// objective whose run() blocks for a fixed latency, sweeping q at a fixed
// evaluation count, and gates on >= 2.5x speedup at q=4.
//
// Results land in BENCH_async.json; CI runs `--smoke` and uploads the file
// as an artifact.
//
// Usage: bench_async [--smoke] [--eval-ms=N] [--evals=N]
//                    [--out=BENCH_async.json]
#include <chrono>
#include <iostream>
#include <thread>

#include "bench_common.h"
#include "util/arg_parse.h"
#include "util/fs.h"
#include "util/json.h"

using namespace autodml;

namespace {

// Evaluation-bound stand-in for a remote training cluster: the objective
// surface is a cheap deterministic bowl, but every run() blocks the calling
// thread for `eval_ms` of real time. No per-run mutable state (counters,
// rng streams), so concurrent runs are safe and results are independent of
// interleaving — exactly the contract concurrent_runs_safe() promises.
class SleepyObjective final : public core::ObjectiveFunction {
 public:
  explicit SleepyObjective(double eval_ms) : eval_ms_(eval_ms) {
    space_.add(conf::ParamSpec::continuous("x", 0.0, 1.0));
    space_.add(conf::ParamSpec::continuous("y", 0.0, 1.0));
    space_.add(conf::ParamSpec::integer("k", 1, 8));
  }

  const conf::ConfigSpace& space() const override { return space_; }
  double target_metric() const override { return 0.9; }
  bool concurrent_runs_safe() const override { return true; }

  core::RunOutcome run(const conf::Config& config,
                       core::RunController*) override {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(eval_ms_));
    const double x = config.get_double("x");
    const double y = config.get_double("y");
    const double k = static_cast<double>(config.get_int("k"));
    core::RunOutcome out;
    out.feasible = true;
    out.usd_per_hour = 1.0;
    out.objective = 5.0 + 30.0 * (x - 0.4) * (x - 0.4) +
                    20.0 * (y - 0.6) * (y - 0.6) + 0.5 * std::abs(k - 3.0);
    out.spent_seconds = out.objective;
    return out;
  }

 private:
  conf::ConfigSpace space_;
  double eval_ms_;
};

struct QResult {
  int q = 0;
  double wall_ms = 0.0;
  double speedup = 1.0;  // vs q=1
  double best_objective = std::numeric_limits<double>::infinity();
};

QResult run_q(int q, int evals, double eval_ms, std::uint64_t seed) {
  SleepyObjective objective(eval_ms);
  core::BoOptions options;
  options.seed = seed;
  options.max_evaluations = evals;
  options.initial_design_size = std::min(6, evals / 2);
  options.surrogate.gp.restarts = 1;
  options.surrogate.gp.adam_iterations = 60;
  options.acq_optimizer.random_candidates = 256;
  options.async_q = q;
  core::BoTuner tuner(objective, options);
  util::Stopwatch watch;
  const core::TuningResult result = tuner.tune();
  QResult out;
  out.q = q;
  out.wall_ms = watch.elapsed_ms();
  out.best_objective = result.best_objective;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const bool smoke = args.get_bool("smoke", false) || args.has("smoke");
  const int evals = static_cast<int>(args.get_int("evals", smoke ? 16 : 32));
  const double eval_ms =
      static_cast<double>(args.get_int("eval-ms", smoke ? 40 : 80));
  const int reps = static_cast<int>(args.get_int("reps", smoke ? 1 : 3));
  const std::string out_path = args.get("out", "BENCH_async.json");

  const std::vector<int> depths = smoke ? std::vector<int>{1, 2, 4}
                                        : std::vector<int>{1, 2, 4, 8};
  std::vector<QResult> results;
  for (const int q : depths) {
    QResult best;
    for (int r = 0; r < reps; ++r) {
      const QResult run = run_q(q, evals, eval_ms, /*seed=*/7100 + r);
      if (best.q == 0 || run.wall_ms < best.wall_ms) best = run;
    }
    results.push_back(best);
  }
  const double base_ms = results.front().wall_ms;
  for (QResult& r : results)
    r.speedup = r.wall_ms > 0.0 ? base_ms / r.wall_ms : 0.0;

  util::JsonArray rows;
  std::vector<std::vector<std::string>> table;
  for (const QResult& r : results) {
    util::JsonObject row;
    row["q"] = r.q;
    row["wall_ms"] = r.wall_ms;
    row["speedup_vs_q1"] = r.speedup;
    row["best_objective"] = r.best_objective;
    rows.emplace_back(std::move(row));
    table.push_back({std::to_string(r.q), util::fmt(r.wall_ms, 4),
                     util::fmt(r.speedup, 3), util::fmt(r.best_objective, 4)});
  }

  bench::print_table("R-A14  async pipeline wall-clock (" +
                         std::to_string(evals) + " evals, " +
                         std::to_string(static_cast<int>(eval_ms)) +
                         " ms/eval, best of " + std::to_string(reps) +
                         " reps)",
                     {"async-q", "wall_ms", "speedup", "best"}, table);

  util::JsonObject doc;
  doc["bench"] = "async";
  doc["smoke"] = smoke;
  doc["evals"] = evals;
  doc["eval_ms"] = eval_ms;
  doc["reps"] = reps;
  doc["depths"] = util::JsonValue(std::move(rows));
  util::write_file_atomic(
      out_path, util::dump_json(util::JsonValue(std::move(doc)), 2) + "\n");
  std::cout << "wrote " << out_path << "\n";

  // Acceptance gate: evaluation-bound search must collapse at least 2.5x
  // at pipeline depth 4. (The theoretical bound is ~4x; proposal work and
  // the initial design's partial fill eat some of it.)
  for (const QResult& r : results) {
    if (r.q == 4 && r.speedup < 2.5) {
      std::cerr << "FAIL: async q=4 speedup " << util::fmt(r.speedup, 2)
                << "x < 2.5x\n";
      return 1;
    }
  }
  return 0;
}
