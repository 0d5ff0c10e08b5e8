#include "timed_objective.h"

#include <algorithm>

namespace perfbench {

namespace {

namespace core = autodml::core;

/// Forwards every call to the tuner's controller and times each verdict:
/// the objective reporting a checkpoint and waiting for the tuner's answer.
class TimedController final : public core::RunController {
 public:
  TimedController(core::RunController& inner, std::vector<double>& verdicts)
      : inner_(&inner), verdicts_(&verdicts) {}

  void on_run_start(double usd_per_hour) override {
    inner_->on_run_start(usd_per_hour);
  }

  bool should_abort(const core::RunCheckpoint& checkpoint) override {
    const Clock::time_point t0 = Clock::now();
    const bool abort = inner_->should_abort(checkpoint);
    verdicts_->push_back(seconds_between(t0, Clock::now()));
    return abort;
  }

 private:
  core::RunController* inner_;
  std::vector<double>* verdicts_;
};

}  // namespace

core::RunOutcome TimedObjective::run(const autodml::conf::Config& config,
                                     core::RunController* controller) {
  EvalInterval interval;
  interval.start = Clock::now();
  core::RunOutcome outcome;
  if (controller != nullptr) {
    TimedController timed(*controller, interval.verdict_seconds);
    outcome = inner_->run(config, &timed);
    interval.guided = true;
  } else {
    outcome = inner_->run(config, nullptr);
  }
  if (inside_run_) inside_run_();
  interval.end = Clock::now();
  autodml::util::MutexLock lock(mu_);
  intervals_.push_back(interval);
  return outcome;
}

std::vector<EvalInterval> TimedObjective::intervals() const {
  std::vector<EvalInterval> out;
  {
    autodml::util::MutexLock lock(mu_);
    out = intervals_;
  }
  std::sort(out.begin(), out.end(),
            [](const EvalInterval& a, const EvalInterval& b) {
              return a.start < b.start;
            });
  return out;
}

}  // namespace perfbench
