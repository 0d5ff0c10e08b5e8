// Job-level knobs shared by the PS and all-reduce runtimes.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace autodml::sim {

enum class SyncMode { kBsp, kAsp, kSsp };
enum class Compression { kNone, kFp16, kInt8, kTopK };

SyncMode sync_mode_from_string(std::string_view s);
Compression compression_from_string(std::string_view s);

/// How a compression scheme changes traffic and compute.
/// `sample_penalty` (the statistical-efficiency cost of lossy gradients) is
/// consumed by the src/ml model, not the runtime, but lives here so one
/// table defines each scheme end to end.
struct CompressionProps {
  double push_ratio = 1.0;       // gradient bytes multiplier
  double pull_ratio = 1.0;       // weight bytes multiplier
  double flops_per_byte = 0.0;   // extra worker compute per *raw* byte
  double sample_penalty = 1.0;   // multiplier on samples-to-target
};

CompressionProps compression_props(Compression c);

/// Everything the runtimes need to know about one training job configuration
/// (the cluster arrives separately as a provisioned Cluster).
struct JobParams {
  double model_bytes = 0.0;
  double flops_per_sample = 0.0;
  int batch_per_worker = 32;
  SyncMode sync = SyncMode::kBsp;
  int staleness = 0;  // SSP bound, iterations
  int comm_threads = 4;
  Compression compression = Compression::kNone;
  double per_message_latency = 500e-6;
  /// Server-side cost of applying one byte of gradient (optimizer math).
  double server_flops_per_byte = 0.75;

  void validate() const {
    if (model_bytes <= 0.0) throw std::invalid_argument("job: model_bytes");
    if (flops_per_sample <= 0.0)
      throw std::invalid_argument("job: flops_per_sample");
    if (batch_per_worker < 1)
      throw std::invalid_argument("job: batch_per_worker");
    if (staleness < 0) throw std::invalid_argument("job: staleness");
    if (comm_threads < 1) throw std::invalid_argument("job: comm_threads");
    if (per_message_latency < 0.0)
      throw std::invalid_argument("job: per_message_latency");
  }
};

/// Steady-state throughput measured by a runtime simulation.
struct RuntimeStats {
  bool completed = false;        // simulation reached its measurement target
  double sim_seconds = 0.0;      // virtual time covered by measurement
  double updates_per_second = 0.0;  // mini-batch commits per second
  double samples_per_second = 0.0;
  double mean_iteration_seconds = 0.0;  // per-worker commit-to-commit
  double mean_staleness = 0.0;   // observed effective staleness (iterations)
  double bytes_per_update = 0.0; // network bytes moved per committed update
  double blocked_fraction = 0.0; // share of worker time spent gated (barrier/SSP)
  // Fault-injection accounting (zero when no injector is attached): restart
  // downtime added to iterations and the number of downtime events applied.
  double fault_downtime_seconds = 0.0;
  std::int64_t fault_events = 0;
};

}  // namespace autodml::sim
