#include "client_model.h"

#include <algorithm>

#include "core/failure.h"
#include "ml/convergence.h"
#include "sim/analytic_model.h"
#include "sim/memory_model.h"
#include "util/rng.h"

namespace perfbench {

namespace core = autodml::core;
namespace sim = autodml::sim;

namespace {

// The charges wl::EvaluatorOptions applies to every simulated run.
constexpr double kProvisioningSeconds = 120.0;
constexpr double kDivergenceSeconds = 300.0;

/// Mean staleness in iteration rounds: the analytic model has no queueing,
/// so take the steady state of each protocol — BSP none, ASP about one
/// round, SSP up to half its bound.
double mean_staleness_rounds(const sim::JobParams& job) {
  switch (job.sync) {
    case sim::SyncMode::kBsp:
      return 0.0;
    case sim::SyncMode::kAsp:
      return 1.0;
    case sim::SyncMode::kSsp:
      return std::min(1.0, 0.5 * job.staleness);
  }
  return 0.0;
}

}  // namespace

core::RunOutcome client_evaluate(const autodml::wl::Workload& workload,
                                 const autodml::conf::Config& config,
                                 std::uint64_t noise_seed, bool noisy) {
  autodml::util::Rng rng(noise_seed);
  const sim::SystemConfig sys = autodml::wl::to_system_config(workload, config);
  sim::ClusterSpec spec = sys.cluster;
  if (sys.arch == sim::Arch::kAllReduce) spec.num_servers = 0;
  const sim::Cluster cluster = sim::provision(spec, rng);

  core::RunOutcome out;
  out.usd_per_hour = cluster.usd_per_hour();
  out.spent_seconds = kProvisioningSeconds;
  const sim::MemoryCheck memory =
      sim::check_memory(cluster, sys.job, sys.arch, sys.memory);
  if (!memory.feasible) {
    out.failure = memory.reason;
    out.failure_kind = core::classify_failure_text(memory.reason);
    return out;
  }
  const sim::AnalyticEstimate estimate =
      sim::analytic_estimate(cluster, sys.job, sys.arch);

  autodml::ml::StatModelParams stat = workload.stat;
  if (!noisy) stat.eval_noise_sigma = 0.0;
  const int workers = sys.cluster.num_workers;
  const autodml::ml::StatOutcome needed = autodml::ml::samples_to_target(
      stat,
      autodml::ml::effective_batch(sys.job.sync, workers,
                                   sys.job.batch_per_worker),
      autodml::ml::staleness_updates(sys.job.sync,
                                     mean_staleness_rounds(sys.job), workers),
      config.get_double("learning_rate"), sys.job.compression, rng);
  if (needed.diverged || !(estimate.samples_per_second > 0.0)) {
    out.failure = "diverged";
    out.failure_kind = core::FailureKind::kDiverged;
    out.spent_seconds += kDivergenceSeconds;
    return out;
  }
  out.feasible = true;
  out.objective = needed.samples_to_target / estimate.samples_per_second;
  out.spent_seconds += out.objective;
  return out;
}

}  // namespace perfbench
