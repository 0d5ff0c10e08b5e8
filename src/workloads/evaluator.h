// The black-box objective the tuner optimizes.
//
// Evaluating a configuration means "run the training job like that and see
// how long (or how many dollars) it takes to reach the target metric". The
// Evaluator composes the discrete-event system simulator (throughput,
// feasibility) with the statistical-efficiency model (samples needed) into
// checkpointed TrainingRuns:
//
//   auto run = evaluator.start(config);
//   while (auto cp = run->next_checkpoint()) {
//     if (tuner_says_hopeless(*cp)) { obs = run->abort(); break; }
//   }
//   if (!obs) obs = run->result();
//
// Every simulated second consumed — including aborted and failed runs — is
// charged to the evaluator's search-cost ledger; experiment R-F4 reads this
// ledger to quantify what early termination saves. Failure modes the tuner
// must cope with: OOM (instant, cheap), divergence (detected after a short
// burn-in), and per-run noise (repeat evaluations disagree).
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "config/config_space.h"
#include "core/failure.h"
#include "ml/convergence.h"
#include "workloads/workload.h"

namespace autodml::wl {

enum class Objective { kTimeToAccuracy, kCostToAccuracy };

struct EvalResult {
  conf::Config config;
  bool feasible = false;
  /// Structured failure classification; the string below is detail only.
  core::FailureKind failure_kind = core::FailureKind::kNone;
  std::string failure;  // "worker OOM...", "diverged", "" when fine
  bool terminated_early = false;

  double tta_seconds = 0.0;  // valid when feasible && !terminated_early
  double cost_usd = 0.0;     // ditto
  double usd_per_hour = 0.0;

  double spent_seconds = 0.0;  // simulated time actually consumed
  double spent_usd = 0.0;

  sim::RuntimeStats runtime;
  double samples_needed = 0.0;

  /// Scalar the tuner minimizes; +infinity for failed or aborted runs.
  double objective_value(Objective objective) const;
};

struct Checkpoint {
  double wall_seconds = 0.0;
  double samples = 0.0;
  double metric = 0.0;
};

/// Checkpoints stream every kCheckpointIntervalSeconds of simulated
/// training, stretched so that a run delivers at most kMaxCheckpointsPerRun.
inline constexpr double kCheckpointIntervalSeconds = 60.0;
inline constexpr int kMaxCheckpointsPerRun = 64;
/// Cluster spin-up, charged to every run.
inline constexpr double kProvisioningOverheadSeconds = 120.0;
/// Burn-in a diverging run pays before the blowup shows.
inline constexpr double kDivergenceDetectionSeconds = 300.0;

struct EvaluatorOptions {
  Objective objective = Objective::kTimeToAccuracy;
  /// Override the per-run statistical noise (negative = workload default).
  double eval_noise_sigma_override = -1.0;
  /// SLO: runs whose time-to-accuracy exceeds this are failures ("deadline
  /// exceeded", killed at the deadline and charged for it). Lets the tuner
  /// minimize cost subject to a latency constraint — the constraint region
  /// is learned by the feasibility model like any other failure mode.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  /// Transient-fault environment. Runtime faults (crashes, stragglers,
  /// degraded networks) reduce measured throughput inside the simulation;
  /// the whole-job kill rate terminates evaluation attempts mid-run with a
  /// transient failure — the case EvalSupervisor exists to retry. Each
  /// attempt draws fresh fault randomness from its per-run stream, and
  /// ground-truth evaluations are always fault-free.
  sim::FaultSpec faults;
};

class Evaluator;

/// One in-flight training run, streaming checkpoints until the target
/// metric is reached or the caller aborts.
class TrainingRun {
 public:
  /// True when the run failed before producing any checkpoint (OOM or
  /// divergence); result() is already final in that case.
  bool failed() const { return failed_; }

  /// Next checkpoint, or nullopt when the run has reached the target (or
  /// failed). Never returns more than kMaxCheckpointsPerRun checkpoints;
  /// the final stretch is folded into result().
  std::optional<Checkpoint> next_checkpoint();

  /// Abort at the last delivered checkpoint; charges only time spent so far.
  EvalResult abort();

  /// Final result; runs to completion if checkpoints were not exhausted.
  EvalResult result();

  /// Dollar rate of the provisioned cluster (available immediately).
  double usd_per_hour() const { return partial_.usd_per_hour; }

 private:
  friend class Evaluator;
  TrainingRun(Evaluator* owner, EvalResult seed_result, double interval);

  Evaluator* owner_;
  EvalResult partial_;
  double interval_ = 0.0;
  int checkpoints_delivered_ = 0;
  double clock_ = 0.0;
  bool finished_ = false;
  bool failed_ = false;
  bool charged_ = false;
};

class Evaluator {
 public:
  Evaluator(const Workload& workload, std::uint64_t seed,
            EvaluatorOptions options = {});

  const Workload& workload() const { return workload_; }
  const conf::ConfigSpace& space() const { return space_; }
  const EvaluatorOptions& options() const { return options_; }

  /// Checkpoint-streaming evaluation for early-termination policies.
  std::unique_ptr<TrainingRun> start(const conf::Config& config);

  /// Noise-free, fixed-seed evaluation for computing oracles and ground
  /// truth in benches. NOT charged to the search-cost ledger.
  EvalResult evaluate_ground_truth(const conf::Config& config) const;

  // Search-cost ledger.
  double total_spent_seconds() const { return spent_seconds_; }
  double total_spent_usd() const { return spent_usd_; }
  std::size_t num_runs() const { return run_counter_; }

  /// Charge supervision overhead (retry backoff waits) to the ledger.
  /// Waiting burns wall-clock search time but no cluster dollars.
  void charge_overhead(double seconds, double usd) { charge(seconds, usd); }

  /// Journal replay: advance the per-run seed stream without evaluating,
  /// so a resumed session's later runs see the same randomness an
  /// uninterrupted session would have.
  void skip_run() { ++run_counter_; }

 private:
  friend class TrainingRun;

  /// Simulate + convergence-model one run; does not touch the ledger.
  /// `inject_faults` gates the transient-fault environment (ground truth
  /// runs with it off).
  EvalResult run_once(const conf::Config& config, util::Rng& rng,
                      double noise_sigma, bool inject_faults) const;

  /// Convert a completed run that misses the SLO into a deadline failure.
  void apply_deadline(EvalResult& result) const;

  void charge(double seconds, double usd) {
    spent_seconds_ += seconds;
    spent_usd_ += usd;
  }

  Workload workload_;
  conf::ConfigSpace space_;
  EvaluatorOptions options_;
  std::uint64_t seed_;
  std::size_t run_counter_ = 0;
  double spent_seconds_ = 0.0;
  double spent_usd_ = 0.0;
};

}  // namespace autodml::wl
