// TimedObjective: the benchmark's view of the evaluation layer.
//
// Wraps any core::ObjectiveFunction and records, with the host's steady
// clock, the interval of every run() call and the time the tuner spends
// answering each checkpoint report (RunController::should_abort) during
// it. Everything else is forwarded untouched — concurrent_runs_safe(), so
// the async executor parallelizes exactly as it would without the wrapper;
// notify_replayed(), so journal replay advances the same per-run state;
// and the controller, so early termination sees the same checkpoints and
// the trial stream is unchanged.
#pragma once

#include <chrono>
#include <functional>
#include <vector>

#include "core/tuner_types.h"
#include "util/annotations.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One run() call as the tuner saw it.
struct EvalInterval {
  Clock::time_point start;
  Clock::time_point end;
  /// The tuner passed a controller: a model-guided evaluation under early
  /// termination (the initial design runs without one).
  bool guided = false;
  /// Time the tuner took for each checkpoint verdict during this run.
  std::vector<double> verdict_seconds;
};

class TimedObjective final : public autodml::core::ObjectiveFunction {
 public:
  /// `inner` must outlive the wrapper. `inside_run`, when set, is called
  /// inside the timed interval after the inner run() returns; the
  /// sensitivity self-test uses it to inject a known amount of work.
  explicit TimedObjective(autodml::core::ObjectiveFunction& inner,
                          std::function<void()> inside_run = {})
      : inner_(&inner), inside_run_(std::move(inside_run)) {}

  const autodml::conf::ConfigSpace& space() const override {
    return inner_->space();
  }
  double target_metric() const override { return inner_->target_metric(); }
  bool objective_is_cost() const override {
    return inner_->objective_is_cost();
  }
  bool concurrent_runs_safe() const override {
    return inner_->concurrent_runs_safe();
  }
  void notify_replayed(const autodml::core::Trial& trial) override {
    inner_->notify_replayed(trial);
  }

  autodml::core::RunOutcome run(const autodml::conf::Config& config,
                                autodml::core::RunController* controller)
      override ADML_EXCLUDES(mu_);

  /// Every run() interval so far, sorted by start time.
  std::vector<EvalInterval> intervals() const ADML_EXCLUDES(mu_);

 private:
  autodml::core::ObjectiveFunction* inner_;
  std::function<void()> inside_run_;
  mutable autodml::util::Mutex mu_;
  std::vector<EvalInterval> intervals_ ADML_GUARDED_BY(mu_);
};

}  // namespace perfbench
