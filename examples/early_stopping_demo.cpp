// Anatomy of early termination: stream checkpoints from two runs — a good
// configuration and a deliberately bad one — through the tuner's
// learning-curve policy, printing each checkpoint and the policy's running
// projection, so you can watch the bad run get killed.
//
//   ./early_stopping_demo [--workload=mlp-tabular]
#include <cmath>
#include <cstdio>

#include "core/early_termination.h"
#include "util/arg_parse.h"
#include "util/string_util.h"
#include "workloads/objective_adapter.h"

using namespace autodml;

namespace {

void stream_run(wl::Evaluator& evaluator, const conf::Config& config,
                double incumbent_tta, const char* label) {
  std::printf("\n--- %s ---\n%s\n", label, config.to_string().c_str());
  core::EarlyTermOptions options;
  options.target_metric = evaluator.workload().stat.target_metric;
  options.min_checkpoints = 5;
  core::EarlyTerminationPolicy policy(options, incumbent_tta);

  auto run = evaluator.start(config);
  if (run->failed()) {
    const wl::EvalResult r = run->result();
    std::printf("failed immediately: %s (spent %s h)\n", r.failure.c_str(),
                util::fmt(r.spent_seconds / 3600.0).c_str());
    return;
  }
  policy.on_run_start(run->usd_per_hour());
  int checkpoint = 0;
  while (auto cp = run->next_checkpoint()) {
    ++checkpoint;
    core::RunCheckpoint rc{cp->wall_seconds, cp->samples, cp->metric};
    const bool abort = policy.should_abort(rc);
    if (checkpoint <= 12 || abort) {
      std::printf("  cp%-3d t=%8.0fs  metric=%.4f  projected-final=%s h\n",
                  checkpoint, cp->wall_seconds, cp->metric,
                  std::isfinite(policy.last_projection())
                      ? util::fmt(policy.last_projection() / 3600.0).c_str()
                      : "?");
    } else if (checkpoint == 13) {
      std::printf("  ...\n");
    }
    if (abort) {
      const wl::EvalResult r = run->abort();
      std::printf("KILLED at checkpoint %d after %s h (incumbent %s h)\n",
                  checkpoint, util::fmt(r.spent_seconds / 3600.0).c_str(),
                  util::fmt(incumbent_tta / 3600.0).c_str());
      return;
    }
  }
  const wl::EvalResult r = run->result();
  std::printf("COMPLETED: TTA %s h (spent %s h)\n",
              util::fmt(r.tta_seconds / 3600.0).c_str(),
              util::fmt(r.spent_seconds / 3600.0).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const wl::Workload& workload =
      wl::workload_by_name(args.get("workload", "mlp-tabular"));
  wl::Evaluator evaluator(workload, 5);

  // A decent configuration, found by hand: PS/BSP on GPU shapes.
  conf::Config good = wl::default_expert_config(workload, evaluator.space());
  good.set_cat("worker_type", workload.worker_instance_menu.back());
  good.set_int("num_workers", 16);
  good.set_int("num_servers", 8);
  evaluator.space().canonicalize(good);

  // A poor one: one small worker, tiny batch, single shard.
  conf::Config bad = wl::default_expert_config(workload, evaluator.space());
  bad.set_cat("worker_type", workload.worker_instance_menu.front());
  bad.set_int("num_workers", 1);
  bad.set_int("num_servers", 1);
  bad.set_int("batch_per_worker", workload.batch_menu.front());
  evaluator.space().canonicalize(bad);

  const double incumbent =
      evaluator.evaluate_ground_truth(good).tta_seconds;
  std::printf("incumbent (good config) TTA: %s h\n",
              util::fmt(incumbent / 3600.0).c_str());

  stream_run(evaluator, good, incumbent, "good configuration (should finish)");
  stream_run(evaluator, bad, incumbent, "bad configuration (should be killed)");

  std::printf("\ntotal simulated search time charged: %s h\n",
              util::fmt(evaluator.total_spent_seconds() / 3600.0).c_str());
  return 0;
}
