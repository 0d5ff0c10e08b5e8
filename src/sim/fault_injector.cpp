#include "sim/fault_injector.h"

#include <algorithm>
#include <stdexcept>

namespace autodml::sim {

FaultSpec light_fault_spec() {
  FaultSpec spec;
  spec.crash_rate_per_worker_hour = 6.0;
  spec.preemption_rate_per_worker_hour = 2.0;
  spec.straggler_rate_per_worker_hour = 20.0;
  spec.degrade_rate_per_hour = 10.0;
  spec.job_kill_rate_per_hour = 0.05;
  return spec;
}

FaultSpec heavy_fault_spec() {
  FaultSpec spec = light_fault_spec();
  spec.crash_rate_per_worker_hour = 30.0;
  spec.preemption_rate_per_worker_hour = 10.0;
  spec.straggler_rate_per_worker_hour = 80.0;
  spec.straggler_slowdown = 6.0;
  spec.degrade_rate_per_hour = 40.0;
  spec.degrade_factor = 6.0;
  spec.job_kill_rate_per_hour = 0.25;
  return spec;
}

namespace {

/// Poisson arrivals in [0, horizon) via exponential gaps. Rate in events
/// per hour; returns sorted start times.
std::vector<double> poisson_arrivals(double rate_per_hour, double horizon,
                                     util::Rng& rng) {
  std::vector<double> out;
  if (rate_per_hour <= 0.0) return out;
  const double rate_per_second = rate_per_hour / 3600.0;
  double t = rng.exponential(rate_per_second);
  while (t < horizon) {
    out.push_back(t);
    t += rng.exponential(rate_per_second);
  }
  return out;
}

}  // namespace

FaultInjector::FaultInjector(const FaultSpec& spec, std::size_t num_workers,
                             std::uint64_t seed, double horizon_seconds) {
  if (horizon_seconds <= 0.0)
    throw std::invalid_argument("FaultInjector: horizon must be positive");
  util::Rng master(seed);
  std::vector<FaultEvent> events;
  // Per-worker streams split in a fixed order so the schedule is invariant
  // to which queries later consume randomness.
  for (std::size_t w = 0; w < num_workers; ++w) {
    util::Rng wrng = master.split();
    for (double t : poisson_arrivals(spec.crash_rate_per_worker_hour,
                                     horizon_seconds, wrng)) {
      events.push_back({FaultKind::kWorkerCrash, w, t,
                        spec.crash_restart_seconds, 1.0});
    }
    for (double t : poisson_arrivals(spec.preemption_rate_per_worker_hour,
                                     horizon_seconds, wrng)) {
      events.push_back({FaultKind::kPreemption, w, t,
                        spec.preemption_restart_seconds, 1.0});
    }
    for (double t : poisson_arrivals(spec.straggler_rate_per_worker_hour,
                                     horizon_seconds, wrng)) {
      events.push_back({FaultKind::kStragglerEpisode, w, t,
                        spec.straggler_duration_seconds,
                        spec.straggler_slowdown});
    }
  }
  util::Rng net_rng = master.split();
  for (double t : poisson_arrivals(spec.degrade_rate_per_hour, horizon_seconds,
                                   net_rng)) {
    events.push_back({FaultKind::kNetworkDegrade, 0, t,
                      spec.degrade_duration_seconds, spec.degrade_factor});
  }
  per_worker_downtime_.resize(num_workers);
  per_worker_slowdown_.resize(num_workers);
  index_events(std::move(events));
}

FaultInjector::FaultInjector(const FaultSpec& /*spec*/, std::size_t num_workers,
                             std::vector<FaultEvent> events) {
  per_worker_downtime_.resize(num_workers);
  per_worker_slowdown_.resize(num_workers);
  index_events(std::move(events));
}

void FaultInjector::index_events(std::vector<FaultEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.start < b.start;
                   });
  for (const FaultEvent& e : events) {
    switch (e.kind) {
      case FaultKind::kWorkerCrash:
      case FaultKind::kPreemption:
        if (e.worker >= per_worker_downtime_.size())
          throw std::invalid_argument("FaultInjector: worker out of range");
        per_worker_downtime_[e.worker].push_back(e);
        break;
      case FaultKind::kStragglerEpisode:
        if (e.worker >= per_worker_slowdown_.size())
          throw std::invalid_argument("FaultInjector: worker out of range");
        per_worker_slowdown_[e.worker].push_back(e);
        break;
      case FaultKind::kNetworkDegrade:
        degrade_windows_.push_back(e);
        break;
    }
  }
  trace_ = std::move(events);
}

double FaultInjector::downtime_during(std::size_t worker, double t0,
                                      double t1) const {
  if (worker >= per_worker_downtime_.size() || t1 <= t0) return 0.0;
  const auto& events = per_worker_downtime_[worker];
  auto it = std::lower_bound(
      events.begin(), events.end(), t0,
      [](const FaultEvent& e, double t) { return e.start < t; });
  double total = 0.0;
  for (; it != events.end() && it->start < t1; ++it) total += it->duration;
  return total;
}

double FaultInjector::compute_slowdown(std::size_t worker, double t) const {
  if (worker >= per_worker_slowdown_.size()) return 1.0;
  double factor = 1.0;
  // Episodes are sorted by start; stop once they begin after t. Overlapping
  // episodes do not compound — the worst active one wins.
  for (const FaultEvent& e : per_worker_slowdown_[worker]) {
    if (e.start > t) break;
    if (t < e.start + e.duration) factor = std::max(factor, e.factor);
  }
  return factor;
}

double FaultInjector::network_penalty(double t) const {
  double factor = 1.0;
  for (const FaultEvent& e : degrade_windows_) {
    if (e.start > t) break;
    if (t < e.start + e.duration) factor = std::max(factor, e.factor);
  }
  return factor;
}

}  // namespace autodml::sim
