// The benchmark's three closed-loop workloads and what one run of them
// records. Each client thread runs tuning sessions back to back, waiting
// for every reply before it asks again. A run executes sessions 0 .. n-1;
// session k's workload, seeds and kind depend only on k, and the benchmark
// seed draws the order the clients take them in.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { kTuneZoo, kTuneAsync, kServiceMix };

/// Parses a --workload name; throws std::invalid_argument when unknown.
Workload workload_from_name(const std::string& name);

/// What one session produced, all timings in host wall seconds.
struct SessionRecord {
  std::int64_t index = 0;
  std::string workload;  // zoo workload tuned
  std::uint64_t seed = 0;
  /// Failures of the session's own correctness checks (0 = correct).
  int check_failures = 0;
  std::string failure;  // first failed check, for the log
  double wall_seconds = 0.0;
  int trials = 0;
  /// Ground-truth objective (seconds or dollars) of the best config found.
  double best_truth = 0.0;
  /// Simulated cluster time the search consumed, hours.
  double search_hours = 0.0;
  std::vector<double> eval_seconds;  // every evaluation's duration
  std::vector<double> eval_gaps;     // idle time between evaluations
  std::vector<double> suggest;       // per decision (see runner.cpp)
  std::vector<double> report;        // per report (see runner.cpp)
  /// Tune sessions: time in the tuner's checkpoint verdicts, which run
  /// inside the objective's run().
  double verdict_seconds = 0.0;
  /// Service sessions: requests sent, and answered ok:true.
  int requests = 0;
  int ok_responses = 0;
  /// Service sessions: client-timed seconds of every request.
  double client_op_seconds = 0.0;
};

struct RunOptions {
  Workload workload = Workload::kTuneZoo;
  /// Draws the order the clients take the sessions in.
  std::uint64_t seed = 1;
  /// Sessions the run executes: indices 0 .. sessions-1.
  std::int64_t sessions = 1;
  int clients = 1;
  /// Directory for service journals (created and emptied by the run).
  std::string scratch_dir;
  /// Test seam: work injected into every evaluation's timed interval.
  std::function<void()> inside_run;
  /// Budget per session; the CLI `tune` default unless a test shrinks it.
  int evaluations = 30;
};

struct RunRecord {
  /// Set-up time of one round of six sessions (one per zoo workload),
  /// measured kSetupRounds times before the clients start.
  std::vector<double> setup_rounds;
  std::vector<SessionRecord> sessions;  // ordered by index
};

RunRecord run_workload(const RunOptions& options);

/// Hardware threads, at least 1.
int hardware_threads();

}  // namespace perfbench
