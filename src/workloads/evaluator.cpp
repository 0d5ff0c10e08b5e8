#include "workloads/evaluator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace autodml::wl {

double EvalResult::objective_value(Objective objective) const {
  if (!feasible || terminated_early)
    return std::numeric_limits<double>::infinity();
  return objective == Objective::kTimeToAccuracy ? tta_seconds : cost_usd;
}

// ---- TrainingRun ------------------------------------------------------------

TrainingRun::TrainingRun(Evaluator* owner, EvalResult seed_result,
                         double interval)
    : owner_(owner), partial_(std::move(seed_result)), interval_(interval) {
  if (!partial_.feasible) {
    // OOM or divergence: the run is over before the first checkpoint.
    failed_ = true;
    finished_ = true;
    owner_->charge(partial_.spent_seconds, partial_.spent_usd);
    charged_ = true;
  }
}

std::optional<Checkpoint> TrainingRun::next_checkpoint() {
  if (finished_) return std::nullopt;
  if (checkpoints_delivered_ >= kMaxCheckpointsPerRun) return std::nullopt;
  const double next_time = clock_ + interval_;
  const double horizon = std::min(
      partial_.tta_seconds, owner_->options().deadline_seconds);
  if (next_time >= horizon) return std::nullopt;
  clock_ = next_time;
  ++checkpoints_delivered_;
  Checkpoint cp;
  cp.wall_seconds = clock_;
  cp.samples = partial_.runtime.samples_per_second * clock_;
  cp.metric = ml::metric_at(owner_->workload().stat, cp.samples,
                            partial_.samples_needed);
  return cp;
}

EvalResult TrainingRun::abort() {
  if (charged_) return partial_;
  finished_ = true;
  charged_ = true;
  EvalResult out = partial_;
  out.terminated_early = true;
  out.spent_seconds += clock_;  // provisioning overhead already included
  out.spent_usd += clock_ / 3600.0 * out.usd_per_hour;
  owner_->charge(out.spent_seconds, out.spent_usd);
  partial_ = out;
  return out;
}

EvalResult TrainingRun::result() {
  if (charged_) return partial_;
  finished_ = true;
  charged_ = true;
  EvalResult out = partial_;
  out.spent_seconds += out.tta_seconds;
  out.spent_usd += out.cost_usd;
  owner_->apply_deadline(out);
  owner_->charge(out.spent_seconds, out.spent_usd);
  partial_ = out;
  return out;
}

// ---- Evaluator --------------------------------------------------------------

Evaluator::Evaluator(const Workload& workload, std::uint64_t seed,
                     EvaluatorOptions options)
    : workload_(workload),
      space_(build_config_space(workload)),
      options_(options),
      seed_(seed) {}

EvalResult Evaluator::run_once(const conf::Config& config, util::Rng& rng,
                               double noise_sigma, bool inject_faults) const {
  space_.validate(config);
  EvalResult out;
  out.config = config;

  const sim::SystemConfig sys = to_system_config(workload_, config);
  sim::SystemSimOptions sim_options;
  if (inject_faults) sim_options.faults = options_.faults;
  const sim::SystemPerformance perf =
      sim::evaluate_system(sys, rng, sim_options);
  out.usd_per_hour = perf.usd_per_hour;
  out.spent_seconds = kProvisioningOverheadSeconds;
  out.spent_usd = kProvisioningOverheadSeconds / 3600.0 * perf.usd_per_hour;

  if (!perf.feasible) {
    out.feasible = false;
    out.failure = perf.failure;
    out.failure_kind = core::classify_failure_text(perf.failure);
    return out;
  }
  out.runtime = perf.runtime;

  ml::StatModelParams stat = workload_.stat;
  stat.eval_noise_sigma = noise_sigma;
  const double batch = ml::effective_batch(
      sys.job.sync, sys.cluster.num_workers, sys.job.batch_per_worker);
  const double staleness = ml::staleness_updates(
      sys.job.sync, perf.runtime.mean_staleness, sys.cluster.num_workers);
  const ml::StatOutcome stat_out = ml::samples_to_target(
      stat, batch, staleness, config.get_double("learning_rate"),
      sys.job.compression, rng);

  if (stat_out.diverged) {
    out.feasible = false;
    out.failure = "diverged";
    out.failure_kind = core::FailureKind::kDiverged;
    out.spent_seconds += kDivergenceDetectionSeconds;
    out.spent_usd += kDivergenceDetectionSeconds / 3600.0 * perf.usd_per_hour;
    return out;
  }

  out.feasible = true;
  out.samples_needed = stat_out.samples_to_target;
  out.tta_seconds = stat_out.samples_to_target /
                    perf.runtime.samples_per_second;
  out.cost_usd = out.tta_seconds / 3600.0 * perf.usd_per_hour;

  // Whole-job kills (spot reclamation of the whole allocation, infra
  // outages): the job dies at a random point of its full duration and the
  // attempt must be restarted from scratch. Transient by definition — the
  // EvalSupervisor retries these; the feasibility model never sees them.
  if (inject_faults && options_.faults.job_kill_rate_per_hour > 0.0) {
    const double t_kill =
        rng.exponential(options_.faults.job_kill_rate_per_hour / 3600.0);
    if (t_kill < out.tta_seconds) {
      out.feasible = false;
      out.failure_kind = core::FailureKind::kInfraCrash;
      out.failure = "transient infra failure killed the job at t=" +
                    std::to_string(t_kill) + "s";
      out.spent_seconds += t_kill;
      out.spent_usd += t_kill / 3600.0 * perf.usd_per_hour;
      out.tta_seconds = 0.0;
      out.cost_usd = 0.0;
      out.samples_needed = 0.0;
      return out;
    }
  }
  return out;
}

void Evaluator::apply_deadline(EvalResult& result) const {
  if (!result.feasible || result.terminated_early) return;
  if (result.tta_seconds <= options_.deadline_seconds) return;
  // SLO violation: the run is killed at the deadline, paying for the
  // cluster time up to it. (Checkpoints still streamed before this point,
  // so an early-termination policy can kill the run even sooner.)
  result.feasible = false;
  result.failure = "deadline exceeded";
  result.failure_kind = core::FailureKind::kDeadlineExceeded;
  result.spent_seconds = kProvisioningOverheadSeconds +
                         options_.deadline_seconds;
  result.spent_usd = result.spent_seconds / 3600.0 * result.usd_per_hour;
}

std::unique_ptr<TrainingRun> Evaluator::start(const conf::Config& config) {
  // Per-run deterministic stream: master seed + run index.
  std::uint64_t mix = seed_ ^ (0x9e3779b97f4a7c15ULL * (run_counter_ + 1));
  ++run_counter_;
  util::Rng rng(util::splitmix64(mix));
  const double noise = options_.eval_noise_sigma_override >= 0.0
                           ? options_.eval_noise_sigma_override
                           : workload_.stat.eval_noise_sigma;
  EvalResult seed_result = run_once(config, rng, noise,
                                    /*inject_faults=*/true);

  // Checkpoint cadence: fine-grained for short runs, bounded count overall.
  double interval = kCheckpointIntervalSeconds;
  if (seed_result.feasible) {
    interval = std::max(interval,
                        seed_result.tta_seconds / kMaxCheckpointsPerRun);
  }
  return std::unique_ptr<TrainingRun>(
      new TrainingRun(this, std::move(seed_result), interval));
}

EvalResult Evaluator::evaluate_ground_truth(const conf::Config& config) const {
  util::Rng rng(0xd1ce5badULL ^ seed_);
  EvalResult result = run_once(config, rng, /*noise_sigma=*/0.0,
                               /*inject_faults=*/false);
  apply_deadline(result);
  return result;
}

}  // namespace autodml::wl
