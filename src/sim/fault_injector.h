// Deterministic transient-fault injection for the discrete-event runtimes.
//
// Real clusters kill training runs for reasons that have nothing to do with
// the configuration being evaluated: spot nodes get preempted, co-tenants
// steal cycles, top-of-rack switches brown out. The tuner must survive that
// environment, so the simulator can replay it: a FaultInjector pre-draws a
// seeded Poisson schedule of fault episodes over simulated time and the
// runtimes consult it while executing. Semantics are sync-discipline-aware
// by construction rather than by special-casing — a crashed or slowed
// worker simply takes longer to finish its iteration, so a BSP barrier
// stalls every survivor on it while ASP/SSP peers keep committing.
//
// Fault kinds:
//   kWorkerCrash      worker process dies; restart pays a checkpoint-restore
//                     cost before the iteration finishes
//   kPreemption       spot instance reclaimed; longer downtime (re-provision
//                     plus restore) charged the same way
//   kStragglerEpisode worker compute slowed by `factor` for a window
//   kNetworkDegrade   cluster-wide bandwidth divided by `factor` for a window
//
// Everything is deterministic given (spec, worker count, seed): the schedule
// is drawn once up front, so identical seeds yield bit-identical fault
// traces and therefore bit-identical simulations (determinism_test relies
// on this). A whole-job kill probability (the evaluation attempt dies, to
// be retried by the EvalSupervisor) is also parameterized here but applied
// at the Evaluator level, where the full run duration is known.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace autodml::sim {

enum class FaultKind {
  kWorkerCrash,
  kPreemption,
  kStragglerEpisode,
  kNetworkDegrade,
};

/// Fault-environment description. All rates are Poisson arrival rates; a
/// default-constructed spec injects nothing (and costs nothing: the
/// runtimes skip every fault hook when no injector is supplied).
struct FaultSpec {
  // Transient worker crash with checkpoint-restore.
  double crash_rate_per_worker_hour = 0.0;
  double crash_restart_seconds = 30.0;
  // Spot-instance preemption: longer downtime (re-provision + restore).
  double preemption_rate_per_worker_hour = 0.0;
  double preemption_restart_seconds = 180.0;
  // Straggler episodes: compute slowed by `slowdown` for `duration`.
  double straggler_rate_per_worker_hour = 0.0;
  double straggler_slowdown = 4.0;
  double straggler_duration_seconds = 30.0;
  // Cluster-wide network degradation windows: bandwidth divided by `factor`.
  double degrade_rate_per_hour = 0.0;
  double degrade_factor = 4.0;
  double degrade_duration_seconds = 20.0;
  // Whole-evaluation transient kill (driver eviction, quota revocation);
  // consumed by wl::Evaluator, not the runtimes, because only the evaluator
  // knows the full run duration. The killed attempt is charged for the
  // simulated time it burned and reported as a transient failure.
  double job_kill_rate_per_hour = 0.0;

  bool injects_runtime_faults() const {
    return crash_rate_per_worker_hour > 0.0 ||
           preemption_rate_per_worker_hour > 0.0 ||
           straggler_rate_per_worker_hour > 0.0 || degrade_rate_per_hour > 0.0;
  }
  bool enabled() const {
    return injects_runtime_faults() || job_kill_rate_per_hour > 0.0;
  }
};

/// Canonical fault environments shared by the CLI, bench_faults, and tests.
FaultSpec light_fault_spec();
FaultSpec heavy_fault_spec();

struct FaultEvent {
  FaultKind kind = FaultKind::kWorkerCrash;
  std::size_t worker = 0;  // ignored for kNetworkDegrade (cluster-wide)
  double start = 0.0;      // simulated seconds
  double duration = 0.0;   // downtime (crash/preempt) or episode length
  double factor = 1.0;     // slowdown / degradation factor
};

class FaultInjector {
 public:
  /// Draws the full schedule up to `horizon_seconds` of simulated time.
  /// Deterministic given (spec, num_workers, seed).
  FaultInjector(const FaultSpec& spec, std::size_t num_workers,
                std::uint64_t seed, double horizon_seconds = 3600.0);

  /// Test hook: adopt an explicit schedule (events need not be sorted).
  // Test surface: tests/fault_injector_test.cpp
  FaultInjector(const FaultSpec& spec, std::size_t num_workers,
                std::vector<FaultEvent> events);

  /// Chronological schedule across all workers and kinds.
  const std::vector<FaultEvent>& trace() const { return trace_; }

  /// Total downtime (restart cost) of crash/preemption events hitting
  /// `worker` in [t0, t1). The runtime adds this to the iteration in
  /// flight, which is what makes BSP stall on the slowest survivor.
  double downtime_during(std::size_t worker, double t0, double t1) const;

  /// Compute-slowdown factor (>= 1) for work started at time t.
  double compute_slowdown(std::size_t worker, double t) const;

  /// Transfer-size multiplier (>= 1) for a send starting at time t: a
  /// degraded network is modeled as proportionally more bytes in flight.
  double network_penalty(double t) const;

  std::size_t num_workers() const { return per_worker_downtime_.size(); }

 private:
  void index_events(std::vector<FaultEvent> events);

  std::vector<FaultEvent> trace_;
  // Per-worker, sorted by start: crash/preempt (downtime) and straggler
  // episodes, plus the cluster-wide degrade windows.
  std::vector<std::vector<FaultEvent>> per_worker_downtime_;
  std::vector<std::vector<FaultEvent>> per_worker_slowdown_;
  std::vector<FaultEvent> degrade_windows_;
};

}  // namespace autodml::sim
