// Core tuner types: the black-box interface the tuner optimizes, and the
// trial/result records it produces.
//
// The tuner is deliberately decoupled from the distributed-ML evaluator: it
// sees only a ConfigSpace and an ObjectiveFunction that runs a config and
// streams checkpoints to an optional RunController (the hook early
// termination plugs into). src/workloads provides the adapter that binds
// this interface to the simulated training jobs.
#pragma once

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "config/config_space.h"
#include "core/failure.h"

namespace autodml::core {

struct RunCheckpoint {
  double wall_seconds = 0.0;
  double samples = 0.0;
  double metric = 0.0;
};

/// Decides, checkpoint by checkpoint, whether a run should be aborted.
class RunController {
 public:
  virtual ~RunController() = default;
  /// Called once per *attempt*, before that attempt's first checkpoint (a
  /// supervisor retry calls it again). Implementations must treat the call
  /// as an attempt boundary: all state accumulated against a previous
  /// attempt — verdict streaks and streamed curve points alike — must be
  /// discarded. A restarted attempt re-streams the same configuration's
  /// learning curve from wall-clock zero, so its checkpoints are
  /// *replicates* of the previous attempt's, not a continuation; judging
  /// the new attempt on its own curve keeps monotone-in-samples fitters
  /// sound and makes verdicts independent of how many retries preceded.
  virtual void on_run_start(double usd_per_hour) { (void)usd_per_hour; }
  /// Return true to abort the run at this checkpoint.
  virtual bool should_abort(const RunCheckpoint& checkpoint) = 0;
};

struct RunOutcome {
  bool feasible = false;   // false: crashed (OOM) or diverged
  bool aborted = false;    // true: controller killed it
  /// Structured failure classification — the source of truth for retry and
  /// feasibility-model decisions. `failure` is human-readable detail only.
  FailureKind failure_kind = FailureKind::kNone;
  std::string failure;
  double objective = std::numeric_limits<double>::infinity();
  /// Evaluation cost actually paid, summed over every attempt the
  /// supervisor made (failed attempts and backoff waits included).
  double spent_seconds = 0.0;
  double usd_per_hour = 0.0;
  /// Evaluation attempts consumed (1 unless a supervisor retried).
  int attempts = 1;
  /// For aborted runs: the early-termination policy's unbiased projection
  /// of where the run would have ended. The surrogate uses it as a
  /// censored pseudo-observation so killed runs still inform the model.
  double projected_objective = std::numeric_limits<double>::infinity();

  /// Transient failures are environment noise; the feasibility surrogate
  /// must not learn them as properties of the configuration.
  bool transient_failure() const {
    return !feasible && is_transient(failure_kind);
  }
};

struct Trial {
  conf::Config config;
  RunOutcome outcome;
  /// Fantasized (kriging-believer) placeholder for a *pending* evaluation:
  /// the outcome holds a belief about the objective, not an observation.
  /// Fantasy trials condition the objective posterior so parallel proposals
  /// spread out, but they must never train the feasibility or cost models,
  /// move the incumbent, or be journaled/recorded.
  bool fantasized = false;
  /// Position in the tuner's proposal sequence (0-based), stamped on every
  /// trial the tuner ingests; -1 when unassigned (trials from elsewhere,
  /// legacy journals). Journal replay sorts by it, so resume tolerates
  /// out-of-order records.
  std::int64_t proposal_index = -1;
  /// Trials the tuner had ingested when it asked for this one; -1 when
  /// unassigned. Replay re-issues asks and ingests in this recorded order.
  std::int64_t ingested_at_ask = -1;

  /// A real, completed, feasible observation. Fantasy placeholders are
  /// never "succeeded": they must not rank as incumbents or seed local
  /// search neighborhoods.
  bool succeeded() const {
    return outcome.feasible && !outcome.aborted && !fantasized;
  }
};

/// The black box: configuration in, (possibly aborted) outcome out.
class ObjectiveFunction {
 public:
  virtual ~ObjectiveFunction() = default;
  virtual const conf::ConfigSpace& space() const = 0;
  /// Run one evaluation. `controller` may be nullptr (run to completion).
  virtual RunOutcome run(const conf::Config& config,
                         RunController* controller) = 0;
  /// Metric value checkpoints must reach (drives early termination).
  virtual double target_metric() const = 0;
  /// True when the objective is dollars rather than seconds.
  virtual bool objective_is_cost() const { return false; }
  /// True when run() may be invoked from several threads at once. The
  /// default is false: the async executor then serializes run() calls in
  /// proposal order (results still overlap with proposal work), which keeps
  /// objectives with per-run deterministic state (seed-derived rng streams,
  /// run counters) bit-identical at any worker count. Override to true only
  /// when the implementation is thread-safe AND its results are independent
  /// of run() interleaving.
  virtual bool concurrent_runs_safe() const { return false; }
  /// Crash-safe resume: the tuner recovered `trial` from its journal
  /// instead of calling run(). Implementations must advance any per-run
  /// deterministic state (seed-derived rng streams, attempt counters)
  /// exactly as the live evaluation would have, so that the continuation
  /// replays the interrupted session bit-for-bit.
  virtual void notify_replayed(const Trial& trial) { (void)trial; }
};

struct TuningResult {
  std::vector<Trial> trials;  // chronological
  conf::Config best_config;
  double best_objective = std::numeric_limits<double>::infinity();
  /// best_objective after each trial (infinity until first success).
  std::vector<double> incumbent_curve;
  double total_spent_seconds = 0.0;
  /// True when tune() stopped because BoOptions::max_wall_seconds elapsed
  /// rather than because a budget was exhausted; the journal holds every
  /// finished trial, so a later run can resume the session.
  bool wall_deadline_hit = false;

  bool found_feasible() const {
    return best_objective < std::numeric_limits<double>::infinity();
  }
};

/// Shared helper: fold a finished trial into the result record.
void record_trial(TuningResult& result, Trial trial);

}  // namespace autodml::core
