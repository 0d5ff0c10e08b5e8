// perfbench — end-to-end tuning benchmark. See ../README.md.
//
//   perfbench --workload=tune-zoo|tune-async|service-mix --seed=N
//             --seconds=S --trace=0|1 [--scratch=DIR] [--attribution=FILE]
//
// --trace=0 runs the workload untraced and prints the end-to-end metrics.
// --trace=1 runs it untraced, then replays the same sessions with the
// tracer and metrics registry attached, checks that tracing changed no
// result, and prints the per-layer metrics (--attribution also writes the
// per-layer self-time table as JSON). The last stdout line is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "attribution.h"
#include "runner.h"
#include "report.h"
#include "util/arg_parse.h"
#include "util/fs.h"
#include "util/json.h"

namespace {

using namespace perfbench;

/// Clients and sessions per run, per workload. tune-zoo and service-mix
/// run one client per hardware thread. tune-async runs half as many,
/// because each of its sessions keeps an executor of hardware_threads() - 1
/// workers: today sim runs serialize, so its cores are not all busy, and a
/// change that lets runs overlap can show. A run is a fixed list of
/// sessions (see runner.h); its length is --seconds times a per-workload
/// session rate, measured on a
/// 4-core x86 host at the commit that added this benchmark, so that a run
/// lasts about --seconds there. The traced run executes its sessions
/// twice (untraced, then traced), so it takes half as many.
RunOptions plan(Workload workload, std::uint64_t seed, double seconds,
                bool trace, const std::string& scratch) {
  double sessions_per_second = 2.0 / 3.0;
  std::int64_t min_sessions = 6;  // one per zoo workload
  RunOptions options;
  options.clients = hardware_threads();
  if (workload == Workload::kTuneAsync) {
    options.clients = std::max(1, hardware_threads() / 2);
    sessions_per_second = 0.5;
  } else if (workload == Workload::kServiceMix) {
    sessions_per_second = 1.6;
    min_sessions = 24;  // each session kind on each zoo workload
  }
  options.workload = workload;
  options.seed = seed;
  options.sessions = std::max(
      min_sessions, static_cast<std::int64_t>(std::ceil(
                        sessions_per_second * seconds / (trace ? 2.0 : 1.0))));
  options.scratch_dir = scratch;
  return options;
}

void log_failures(const RunRecord& run, const char* label) {
  for (const SessionRecord& s : run.sessions) {
    if (s.check_failures > 0)
      std::fprintf(stderr, "perfbench: %s session %lld (%s): %s\n", label,
                   static_cast<long long>(s.index), s.workload.c_str(),
                   s.failure.c_str());
  }
}

bool all_correct(const RunRecord& run) {
  for (const SessionRecord& s : run.sessions)
    if (s.check_failures > 0) return false;
  return !run.sessions.empty();
}

bool finite_metrics(std::vector<Metric>& metrics) {
  bool ok = true;
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      m.value = 0.0;
      ok = false;
    }
  }
  return ok;
}

/// Tracing must not change results: each replayed session's best config
/// scores and its search cost must equal the untraced run's, bit for bit.
bool same_results(const RunRecord& a, const RunRecord& b) {
  if (a.sessions.size() != b.sessions.size()) return false;
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    const SessionRecord& x = a.sessions[i];
    const SessionRecord& y = b.sessions[i];
    if (x.index != y.index || x.best_truth != y.best_truth ||
        x.search_hours != y.search_hours || x.trials != y.trials) {
      std::fprintf(stderr,
                   "perfbench: session %lld differs when traced "
                   "(best %.17g vs %.17g, search %.17g h vs %.17g h)\n",
                   static_cast<long long>(x.index), x.best_truth, y.best_truth,
                   x.search_hours, y.search_hours);
      return false;
    }
  }
  return true;
}

int run(const autodml::util::ArgParser& args) {
  const Workload workload = workload_from_name(args.get("workload", ""));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  const std::string scratch =
      args.get("scratch", ".bench_build/scratch") + "/run";
  const RunOptions options = plan(workload, seed, seconds, trace, scratch);

  const RunRecord untraced = run_workload(options);
  log_failures(untraced, "untraced");
  bool correct = all_correct(untraced);
  std::vector<Metric> metrics;
  OpCounts counts = op_counts(untraced);

  if (!trace) {
    std::vector<std::string> problems;
    metrics =
        end_to_end_metrics(untraced, options.clients, peak_rss_mb(), problems);
    for (const std::string& p : problems)
      std::fprintf(stderr, "perfbench: %s\n", p.c_str());
    correct = correct && problems.empty();
  } else {
    const TracedRun traced = replay_traced(options, untraced);
    log_failures(traced.traced, "traced");
    if (!same_results(untraced, traced.traced)) correct = false;
    correct = correct && all_correct(traced.traced);
    const OpCounts traced_counts = op_counts(traced.traced);
    counts.attempted += traced_counts.attempted;
    counts.failed += traced_counts.failed;
    metrics = per_layer_metrics(traced);
    if (args.has("attribution")) {
      autodml::util::JsonObject shares;
      for (const Metric& m : metrics)
        if (m.name.rfind("share.", 0) == 0 ||
            m.name == "bench.attributed_share")
          shares.emplace(m.name, autodml::util::JsonValue(m.value));
      autodml::util::JsonObject doc;
      doc.emplace("workload", autodml::util::JsonValue(args.get("workload", "")));
      doc.emplace("seed", autodml::util::JsonValue(static_cast<double>(seed)));
      doc.emplace("sessions", autodml::util::JsonValue(static_cast<double>(
                                  traced.traced.sessions.size())));
      doc.emplace("self_time_share_of_session_wall",
                  autodml::util::JsonValue(std::move(shares)));
      autodml::util::write_file_atomic(
          args.get("attribution", ""),
          autodml::util::dump_json(autodml::util::JsonValue(std::move(doc)), 2) +
              "\n");
    }
  }
  correct = finite_metrics(metrics) && correct;
  std::printf("%s\n", result_line(correct, counts, metrics).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(autodml::util::ArgParser(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
