// The service-mix client's own evaluator: a closed-form stand-in for the
// training job a real service client would run on its cluster.
//
// It composes the simulator's closed-form throughput model
// (sim::analytic_estimate, microseconds per call) with the statistical-
// efficiency model, so a session's evaluations cost the client almost
// nothing and the service's suggest/report path is what the workload
// times. The discrete-event simulator is never called.
#pragma once

#include <cstdint>

#include "config/config_space.h"
#include "core/tuner_types.h"
#include "workloads/workload.h"

namespace perfbench {

/// Time-to-accuracy outcome of `config`, charged like wl::Evaluator charges
/// a full run (provisioning, divergence burn-in). `noise_seed` drives the
/// cluster draw and the run-to-run noise; with `noisy == false` the noise
/// is off, which gives the ground truth a session's best config is scored
/// by.
autodml::core::RunOutcome client_evaluate(const autodml::wl::Workload& workload,
                                          const autodml::conf::Config& config,
                                          std::uint64_t noise_seed, bool noisy);

}  // namespace perfbench
