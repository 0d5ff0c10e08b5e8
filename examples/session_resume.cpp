// Persisting and resuming tuning sessions — two complementary mechanisms.
//
// Warm start (part 1): tune with a small budget, save every trial to a JSON
// session file, then later load it into a *different* tuning session (new
// seed, new evaluator) as prior history — without re-paying for anything
// already learned.
//
// Crash-safe journal (part 2): run with --journal so every evaluated trial
// is fsynced to an append-only journal. Kill the process at any point;
// rerunning with the same seed and options replays the journaled trials
// instead of re-evaluating them and continues to the same final incumbent
// an uninterrupted run would have reached — with the budget accounting
// intact. Here the "crash" is simulated by a first run with a smaller
// evaluation budget.
//
//   ./session_resume [--workload=mf-recsys] [--phase1=12] [--phase2=8]
//                    [--session=FILE] [--journal=FILE]
#include <cstdio>
#include <exception>

#include "core/bo_tuner.h"
#include "core/session_io.h"
#include "util/arg_parse.h"
#include "util/string_util.h"
#include "workloads/objective_adapter.h"

using namespace autodml;

namespace {

int run(const util::ArgParser& args) {
  const wl::Workload& workload =
      wl::workload_by_name(args.get("workload", "mf-recsys"));
  const int phase1 = static_cast<int>(args.get_int("phase1", 12));
  const int phase2 = static_cast<int>(args.get_int("phase2", 8));
  const std::string path = args.get("session", "/tmp/autodml_session.json");
  const std::string journal =
      args.get("journal", "/tmp/autodml_session.journal");

  // ---- Part 1: warm start across sessions ------------------------------
  double phase1_best;
  {
    wl::Evaluator evaluator(workload, 42);
    wl::EvaluatorObjective objective(evaluator);
    core::BoOptions options;
    options.seed = 42;
    options.max_evaluations = phase1;
    core::BoTuner tuner(objective, options);
    const core::TuningResult result = tuner.tune();
    phase1_best = result.best_objective;
    core::save_trials(path, result.trials);
    std::printf("phase 1: %d evaluations, best TTA %s h, session -> %s\n",
                phase1, util::fmt(phase1_best / 3600.0).c_str(),
                path.c_str());
  }
  {
    wl::Evaluator evaluator(workload, 43);  // fresh evaluator, fresh ledger
    wl::EvaluatorObjective objective(evaluator);
    core::BoOptions options;
    options.seed = 43;
    options.max_evaluations = phase2;
    options.initial_design_size = 2;  // history replaces the cold design
    options.warm_start = core::load_trials(path, evaluator.space());
    core::BoTuner tuner(objective, options);
    const core::TuningResult result = tuner.tune();
    std::printf(
        "phase 2: loaded %zu trials, %d more evaluations, best TTA %s h\n",
        options.warm_start.size(), phase2,
        util::fmt(result.best_objective / 3600.0).c_str());
    std::printf("phase 2 search cost: %s simulated hours\n",
                util::fmt(evaluator.total_spent_seconds() / 3600.0).c_str());
    const double combined = std::min(phase1_best, result.best_objective);
    std::printf("combined best across phases: %s h\n",
                util::fmt(combined / 3600.0).c_str());
  }

  // ---- Part 2: crash-safe resume from the trial journal ----------------
  std::remove(journal.c_str());
  const int full_budget = phase1 + phase2;
  const auto journaled_run = [&](int evals) {
    wl::Evaluator evaluator(workload, 44);
    wl::EvaluatorObjective objective(evaluator);
    core::BoOptions options;
    options.seed = 44;  // resume requires identical seed and options
    options.max_evaluations = evals;
    options.journal_path = journal;
    core::BoTuner tuner(objective, options);
    const core::TuningResult result = tuner.tune();
    return std::make_tuple(result.best_objective, tuner.replayed_trials(),
                           evaluator.total_spent_seconds());
  };

  const auto [interrupted_best, r0, spent0] = journaled_run(phase1);
  std::printf(
      "journal: \"crashed\" after %d evaluations (best TTA %s h, "
      "%s simulated hours spent) -> %s\n",
      phase1, util::fmt(interrupted_best / 3600.0).c_str(),
      util::fmt(spent0 / 3600.0).c_str(), journal.c_str());

  const auto [resumed_best, replayed, spent1] = journaled_run(full_budget);
  std::printf(
      "journal resume: replayed %zu trials for free, evaluated %d more, "
      "best TTA %s h\n",
      replayed, full_budget - static_cast<int>(replayed),
      util::fmt(resumed_best / 3600.0).c_str());
  std::printf(
      "ledger this process: %s simulated hours (vs %s for a from-scratch "
      "run of the full budget)\n",
      util::fmt(spent1 / 3600.0).c_str(),
      util::fmt((spent0 + spent1) / 3600.0).c_str());
  std::remove(journal.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::ArgParser(argc, argv));
  } catch (const std::exception& e) {
    // Unreadable/corrupt session or journal files land here with the path
    // and record context in the message.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
