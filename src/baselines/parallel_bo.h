// Synchronous parallel Bayesian optimization.
//
// When `batch_size` training runs can execute concurrently (separate
// clusters), each round asks one BoTuner session for up to `batch_size`
// proposals — each conditioned on kriging-believer fantasies of the ones
// asked before it — evaluates them, and tells the results back. The
// round's wall-clock time is the *maximum* of its runs' evaluation times
// instead of their sum. This driver evaluates sequentially (the simulated
// evaluations are single-threaded) but accounts wall clock as a parallel
// executor would — the quantity experiment R-F13 reports.
#pragma once

#include "core/bo_tuner.h"
#include "core/tuner_types.h"

namespace autodml::baselines {

struct ParallelBoResult {
  core::TuningResult tuning;
  /// Simulated wall-clock the search occupies with `batch_size`-way
  /// parallelism: sum over rounds of the round's slowest evaluation.
  double wall_clock_seconds = 0.0;
};

/// Drives a BoTuner session in rounds of `batch_size` asks until its budget
/// is spent. The tuner's options decide everything else: set
/// `initial_design_size = batch_size` for a space-filling first round.
/// Early termination, when enabled, races each run against the incumbent
/// known at its ask. Throws std::invalid_argument when batch_size < 1.
ParallelBoResult parallel_bo(core::ObjectiveFunction& objective,
                             core::BoOptions options, int batch_size);

}  // namespace autodml::baselines
