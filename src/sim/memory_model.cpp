#include "sim/memory_model.h"

#include <stdexcept>

namespace autodml::sim {

Arch arch_from_string(std::string_view s) {
  if (s == "ps") return Arch::kPs;
  if (s == "allreduce") return Arch::kAllReduce;
  throw std::invalid_argument("unknown architecture: " + std::string(s));
}

MemoryCheck check_memory(const Cluster& cluster, const JobParams& job,
                         Arch arch, const MemoryParams& params) {
  MemoryCheck check;
  const double activations =
      static_cast<double>(job.batch_per_worker) *
      params.activation_bytes_per_sample;

  // Worker: weights + local gradient (+ optimizer state when there is no
  // parameter server to keep it).
  double worker_model_copies = 2.0;  // weights + gradient
  if (arch == Arch::kAllReduce)
    worker_model_copies += params.optimizer_state_factor;
  check.worker_bytes = params.framework_overhead_bytes +
                       worker_model_copies * job.model_bytes + activations;

  for (const auto& node : cluster.workers) {
    if (check.worker_bytes > node.type.ram_bytes()) {
      check.feasible = false;
      check.reason = "worker OOM on " + node.type.name;
      return check;
    }
  }

  if (arch == Arch::kPs) {
    if (cluster.servers.empty())
      throw std::invalid_argument("check_memory: PS arch without servers");
    const double shard = job.model_bytes *
                         (1.0 + params.optimizer_state_factor) /
                         static_cast<double>(cluster.servers.size());
    check.server_bytes = params.framework_overhead_bytes + shard;
    for (const auto& node : cluster.servers) {
      if (check.server_bytes > node.type.ram_bytes()) {
        check.feasible = false;
        check.reason = "server OOM on " + node.type.name;
        return check;
      }
    }
  }
  return check;
}

}  // namespace autodml::sim
