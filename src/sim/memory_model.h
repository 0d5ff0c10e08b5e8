// Memory-footprint model with OOM feasibility.
//
// A real tuner must survive configurations that simply crash (too-large
// batches, too few PS shards for the optimizer state). We model the dominant
// footprint terms and declare a configuration infeasible when any node would
// exceed its RAM — the evaluator reports these as failed runs, which the
// tuner must learn to avoid without wasting budget on them.
#pragma once

#include <string>

#include "sim/cluster.h"
#include "sim/job.h"

namespace autodml::sim {

enum class Arch { kPs, kAllReduce };

Arch arch_from_string(std::string_view s);

struct MemoryParams {
  /// Bytes of activations retained per sample of the mini-batch.
  double activation_bytes_per_sample = 0.0;
  /// Optimizer state size as a multiple of model size (Adam: m and v -> 2).
  double optimizer_state_factor = 2.0;
  /// Fixed framework/runtime overhead per node.
  double framework_overhead_bytes = 1.2e9;
};

struct MemoryCheck {
  bool feasible = true;
  std::string reason;          // empty when feasible
  double worker_bytes = 0.0;   // footprint of one worker
  double server_bytes = 0.0;   // footprint of one server (PS only)
};

/// Checks every node of the provisioned cluster against its RAM.
MemoryCheck check_memory(const Cluster& cluster, const JobParams& job,
                         Arch arch, const MemoryParams& params);

}  // namespace autodml::sim
