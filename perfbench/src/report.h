// Turns run records into the benchmark's metrics and its one-line JSON
// result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attribution.h"
#include "runner.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Sessions and requests attempted, and the ones that failed a check.
struct OpCounts {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};
OpCounts op_counts(const RunRecord& run);

/// The end-to-end metrics of an untraced run. Appends to `problems` when a
/// percentile would rest on fewer than ten samples beyond it.
std::vector<Metric> end_to_end_metrics(const RunRecord& run, int clients,
                                       double peak_rss_mb,
                                       std::vector<std::string>& problems);

/// Everything the per-layer metrics need from one traced replay.
struct TracedRun {
  RunRecord untraced;  // the run replayed
  RunRecord traced;    // the same sessions with the tracer attached
  Attribution attribution;
  int clients = 1;
};

/// Replays `untraced`'s sessions with the process-wide obs::Tracer and
/// obs::MetricsRegistry attached (both are reset first and detached after)
/// and attributes the trace.
TracedRun replay_traced(const RunOptions& options, RunRecord untraced);

/// Per-layer metrics of a traced replay. Reads span totals and counters
/// from the process-wide obs::Tracer and obs::MetricsRegistry.
std::vector<Metric> per_layer_metrics(const TracedRun& run);

/// Evaluations per second of the run's clients: clients x trials / summed
/// session wall, which leaves out the tail where some clients are idle.
double trials_per_second(const RunRecord& run, int clients);

/// The benchmark's result line.
std::string result_line(bool correct, const OpCounts& counts,
                        const std::vector<Metric>& metrics);

/// Peak resident set of this process, MB.
double peak_rss_mb();

}  // namespace perfbench
