// Resilient evaluation supervisor: retries transient failures so the tuner
// sees the environment it would face on real clusters — evaluations that
// sometimes die through no fault of the configuration.
//
// The supervisor wraps an Evaluator and owns the retry loop:
//
//   - Transient failures (spot preemption, infra crashes) are retried with
//     capped exponential backoff plus jitter, up to a configurable attempt
//     budget. Deterministic failures (OOM, divergence, deadline) are the
//     configuration's fault and are never retried.
//   - Every attempt — failed ones included — and every backoff wait is
//     charged to the evaluator's search-cost ledger, so experiments measure
//     the true price of operating under faults.
//   - A per-attempt timeout converts runs that exceed it into a
//     deterministic kEvalTimeout failure (a hung evaluation tells you
//     something about the configuration; retrying it would hang again).
//
// SupervisedObjective adapts the supervisor to the tuner's black-box
// interface, reporting attempt counts and structured failure kinds so the
// feasibility surrogate can exclude transient noise.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/tuner_types.h"
#include "util/annotations.h"
#include "util/rng.h"
#include "workloads/evaluator.h"

namespace autodml::wl {

struct RetryPolicy {
  /// Total attempts per evaluation (1 = no retries).
  int max_attempts = 3;
  /// Backoff before retry k (1-based) is
  ///   min(cap, base * multiplier^(k-1)) * jitter,  jitter ~ U[1-j, 1+j].
  double backoff_base_seconds = 30.0;
  double backoff_multiplier = 2.0;
  double backoff_cap_seconds = 600.0;
  double jitter_fraction = 0.25;
  /// Attempts whose simulated wall clock exceeds this are aborted and
  /// classified kEvalTimeout (deterministic: not retried).
  double attempt_timeout_seconds = std::numeric_limits<double>::infinity();
};

/// Mean backoff (before jitter) ahead of retry `retry_index` (1-based).
double backoff_mean_seconds(const RetryPolicy& policy, int retry_index);

struct SupervisedOutcome {
  /// Result of the final attempt (success, or the failure that ended it).
  EvalResult result;
  int attempts = 0;
  /// Total backoff waited across retries (charged to the ledger).
  double backoff_seconds = 0.0;
  /// Ledger cost of the whole evaluation: every attempt plus backoff.
  double total_spent_seconds = 0.0;
  double total_spent_usd = 0.0;
  /// Failure kind of each attempt (kNone for a successful final attempt).
  std::vector<core::FailureKind> attempt_kinds;
};

class EvalSupervisor {
 public:
  /// The evaluator must outlive the supervisor. `seed` drives only the
  /// backoff jitter (a per-evaluation stream derived from it), never the
  /// evaluations themselves.
  EvalSupervisor(Evaluator& evaluator, RetryPolicy policy, std::uint64_t seed);

  /// Run one supervised evaluation. `controller` (may be null) streams
  /// checkpoints of each attempt; a controller abort ends the evaluation
  /// immediately (early termination is a verdict, not a failure).
  ///
  /// The retry/jitter counter is mutex-guarded, so concurrent callers get
  /// distinct jitter streams; the wrapped Evaluator itself is NOT
  /// thread-safe, so concurrent evaluate() additionally requires one
  /// evaluator per caller (the per-session layout the tuning service
  /// uses) or external serialization.
  SupervisedOutcome evaluate(const conf::Config& config,
                             core::RunController* controller = nullptr)
      ADML_EXCLUDES(mu_);

  /// Journal replay: advance the per-evaluation jitter stream without
  /// evaluating (pair with Evaluator::skip_run for the attempts).
  void skip_evaluation() ADML_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    ++eval_counter_;
  }

  Evaluator& evaluator() { return *evaluator_; }
  std::size_t num_evaluations() const ADML_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return eval_counter_;
  }

 private:
  EvalResult run_attempt(const conf::Config& config,
                         core::RunController* controller);

  Evaluator* evaluator_;
  RetryPolicy policy_;
  std::uint64_t seed_;
  mutable util::Mutex mu_;
  /// Evaluations started so far; also the jitter-stream index of the next
  /// evaluation.
  std::size_t eval_counter_ ADML_GUARDED_BY(mu_) = 0;
};

/// Tuner adapter running every evaluation through an EvalSupervisor.
/// Mirrors EvaluatorObjective but reports attempts and aggregate cost.
class SupervisedObjective final : public core::ObjectiveFunction {
 public:
  /// The supervisor must outlive the adapter.
  explicit SupervisedObjective(EvalSupervisor& supervisor)
      : supervisor_(&supervisor) {}

  const conf::ConfigSpace& space() const override {
    return supervisor_->evaluator().space();
  }

  double target_metric() const override {
    return supervisor_->evaluator().workload().stat.target_metric;
  }

  bool objective_is_cost() const override {
    return supervisor_->evaluator().options().objective ==
           Objective::kCostToAccuracy;
  }

  core::RunOutcome run(const conf::Config& config,
                       core::RunController* controller) override;

  void notify_replayed(const core::Trial& trial) override;

  EvalSupervisor& supervisor() { return *supervisor_; }

 private:
  EvalSupervisor* supervisor_;
};

}  // namespace autodml::wl
