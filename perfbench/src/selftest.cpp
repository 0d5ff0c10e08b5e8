// perfbench_selftest — the benchmark's own tests.
//
// 1. Sensitivity: a known CPU busy-loop injected into every evaluation's
//    timed interval must show up, within 10%, in the evaluation layer's
//    busy time and in trials_per_s. This guards against a benchmark whose
//    timings do not follow the work the program does.
// 2. Attribution: on traced tune sessions the named layers must explain at
//    least 90% of session wall, and on tune-zoo the simulator and GP
//    hyperparameter optimization must be the two largest self-time shares.
//
// Exit 0 when every check passes; each failed check prints one line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "runner.h"
#include "report.h"
#include "timed_objective.h"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// Spins the CPU for `seconds` of steady-clock time.
void busy_loop(double seconds) {
  const Clock::time_point start = Clock::now();
  volatile double sink = 0.0;
  while (seconds_between(start, Clock::now()) < seconds) sink = sink + 1.0;
}

double eval_busy(const RunRecord& run) {
  double total = 0.0;
  for (const SessionRecord& s : run.sessions)
    for (double e : s.eval_seconds) total += e;
  return total;
}

int trials(const RunRecord& run) {
  int total = 0;
  for (const SessionRecord& s : run.sessions) total += s.trials;
  return total;
}

double metric(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics)
    if (m.name == name) return m.value;
  return std::nan("");
}

void sensitivity() {
  // The injection dwarfs the session's own work, so the host's speed
  // drifting between the two runs cannot hide or fake it.
  constexpr double kInjected = 1.0;  // seconds per evaluation
  RunOptions options;
  options.workload = Workload::kTuneZoo;
  options.seed = 7;
  options.clients = 1;
  options.sessions = 1;
  options.evaluations = 10;
  const RunRecord base = run_workload(options);
  options.inside_run = [] { busy_loop(kInjected); };
  const RunRecord slowed = run_workload(options);

  const int n = trials(base);
  const double injected = n * kInjected;
  check(n == trials(slowed) && n == options.evaluations,
        "both runs complete the same " + std::to_string(n) + " trials");
  const double busy_delta = eval_busy(slowed) - eval_busy(base);
  check(std::abs(busy_delta - injected) <= 0.1 * injected,
        "workloads.eval_busy_s moved by " + std::to_string(busy_delta) +
            " s (from " + std::to_string(eval_busy(base)) + " s) for " +
            std::to_string(injected) + " s injected");
  // One client: each trial's share of session wall grows by the injection.
  const double per_trial_delta = 1.0 / trials_per_second(slowed, 1) -
                                 1.0 / trials_per_second(base, 1);
  check(std::abs(per_trial_delta - kInjected) <= 0.1 * kInjected,
        "1/trials_per_s moved by " + std::to_string(per_trial_delta) +
            " s per trial for " + std::to_string(kInjected) + " s injected");
}

void attribution(Workload workload, const char* label, bool zoo_ranking) {
  RunOptions options;
  options.workload = workload;
  options.seed = 11;
  options.clients = 1;
  options.sessions = 1;
  const TracedRun run = replay_traced(options, run_workload(options));
  const std::vector<Metric> metrics = per_layer_metrics(run);
  const double attributed = metric(metrics, "bench.attributed_share");
  check(attributed >= 0.9, std::string(label) + ": bench.attributed_share " +
                               std::to_string(attributed) + " >= 0.9");
  if (!zoo_ranking) return;
  std::vector<std::pair<double, std::string>> shares;
  for (const auto& [layer, seconds] : run.attribution.self_seconds)
    shares.emplace_back(seconds, layer);
  std::sort(shares.rbegin(), shares.rend());
  const bool top_two =
      (shares[0].second == "sim" && shares[1].second == "gp.hyperopt") ||
      (shares[0].second == "gp.hyperopt" && shares[1].second == "sim");
  check(top_two, std::string(label) + ": largest self-time layers are " +
                     shares[0].second + ", " + shares[1].second +
                     " (want sim and gp.hyperopt)");
}

}  // namespace

int main() {
  sensitivity();
  attribution(Workload::kTuneZoo, "tune-zoo", /*zoo_ranking=*/true);
  attribution(Workload::kTuneAsync, "tune-async", /*zoo_ranking=*/false);
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
