#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace perfbench {

namespace {

namespace util = autodml::util;

/// Percentile q of `xs`, scaled. Records a problem when there are no
/// samples, or when fewer than ten lie beyond a percentile above the
/// median; the median itself is always reported.
double percentile(const std::vector<double>& xs, double q, double scale,
                  const std::string& name,
                  std::vector<std::string>& problems) {
  const double beyond = static_cast<double>(xs.size()) * (1.0 - q);
  if (xs.empty() || (q > 0.5 && beyond < 10.0)) {
    problems.push_back(name + " rests on " + std::to_string(xs.size()) +
                       " samples, fewer than ten beyond it");
  }
  if (xs.empty()) return 0.0;
  return util::quantile(std::span<const double>(xs), q) * scale;
}

std::vector<double> pooled(const RunRecord& run,
                           std::vector<double> SessionRecord::*field) {
  std::vector<double> out;
  for (const SessionRecord& s : run.sessions)
    out.insert(out.end(), (s.*field).begin(), (s.*field).end());
  return out;
}

double sum(const std::vector<double>& xs) {
  double total = 0.0;
  for (double x : xs) total += x;
  return total;
}

double span_total(const std::map<std::string, autodml::obs::Tracer::SpanStat>&
                      totals,
                  const char* name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.total_seconds;
}

double span_count(const std::map<std::string, autodml::obs::Tracer::SpanStat>&
                      totals,
                  const char* name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

OpCounts op_counts(const RunRecord& run) {
  OpCounts counts;
  for (const SessionRecord& s : run.sessions) {
    counts.attempted += 1 + s.requests;
    counts.failed += (s.check_failures > 0 ? 1 : 0) + (s.requests - s.ok_responses);
  }
  return counts;
}

double trials_per_second(const RunRecord& run, int clients) {
  double trials = 0.0;
  double wall = 0.0;
  for (const SessionRecord& s : run.sessions) {
    trials += s.trials;
    wall += s.wall_seconds;
  }
  return ratio(clients * trials, wall);
}

std::vector<Metric> end_to_end_metrics(const RunRecord& run, int clients,
                                       double peak_rss,
                                       std::vector<std::string>& problems) {
  std::vector<double> session;
  for (const SessionRecord& s : run.sessions) session.push_back(s.wall_seconds);
  const OpCounts counts = op_counts(run);
  std::vector<Metric> m;
  m.push_back({"setup_s",
               util::median(std::span<const double>(run.setup_rounds)), "s"});
  m.push_back({"session_s.p50",
               percentile(session, 0.5, 1.0, "session_s.p50", problems), "s"});
  m.push_back({"trials_per_s", trials_per_second(run, clients), "1/s"});
  const std::vector<double> gaps = pooled(run, &SessionRecord::eval_gaps);
  const std::vector<double> suggest = pooled(run, &SessionRecord::suggest);
  const std::vector<double> report = pooled(run, &SessionRecord::report);
  m.push_back({"eval_gap_ms.p50",
               percentile(gaps, 0.5, 1e3, "eval_gap_ms.p50", problems), "ms"});
  m.push_back({"eval_gap_ms.p90",
               percentile(gaps, 0.9, 1e3, "eval_gap_ms.p90", problems), "ms"});
  m.push_back({"suggest_ms.p50",
               percentile(suggest, 0.5, 1e3, "suggest_ms.p50", problems),
               "ms"});
  m.push_back({"suggest_ms.p90",
               percentile(suggest, 0.9, 1e3, "suggest_ms.p90", problems),
               "ms"});
  m.push_back({"report_ms.p50",
               percentile(report, 0.5, 1e3, "report_ms.p50", problems), "ms"});
  m.push_back({"report_ms.p90",
               percentile(report, 0.9, 1e3, "report_ms.p90", problems), "ms"});
  m.push_back({"op_ok_ratio",
               ratio(static_cast<double>(counts.attempted - counts.failed),
                     static_cast<double>(counts.attempted)),
               "ratio"});
  m.push_back({"peak_rss_mb", peak_rss, "MB"});
  return m;
}

TracedRun replay_traced(const RunOptions& options, RunRecord untraced) {
  // `options` ran `untraced`; running it again replays the same sessions.
  autodml::obs::MetricsRegistry& registry =
      autodml::obs::MetricsRegistry::instance();
  autodml::obs::Tracer& tracer = autodml::obs::Tracer::instance();
  registry.reset();
  registry.enable();
  tracer.start();
  TracedRun run;
  run.untraced = std::move(untraced);
  run.traced = run_workload(options);
  tracer.stop();
  registry.disable();
  run.clients = options.clients;
  run.attribution = attribute_trace(tracer.export_chrome_json());
  // The early-termination verdicts run inside the objective's run(), so
  // the trace files them under the evaluation spans; the wrapper timed
  // them, so move them to their own layer.
  double verdicts = 0.0;
  for (const SessionRecord& s : run.traced.sessions)
    verdicts += s.verdict_seconds;
  run.attribution.self_seconds["core.early_term"] += verdicts;
  run.attribution.self_seconds["workloads"] -= verdicts;
  return run;
}

std::vector<Metric> per_layer_metrics(const TracedRun& run) {
  const auto totals = autodml::obs::Tracer::instance().span_totals();
  autodml::obs::MetricsRegistry& registry =
      autodml::obs::MetricsRegistry::instance();
  const auto count = [&](const char* name) {
    return static_cast<double>(registry.counter(name).value());
  };
  const RunRecord& traced = run.traced;
  double wall = 0.0, client_ops = 0.0;
  for (const SessionRecord& s : traced.sessions) {
    wall += s.wall_seconds;
    client_ops += s.client_op_seconds;
  }
  const std::vector<double> evals = pooled(traced, &SessionRecord::eval_seconds);
  const double client_evals = sum(evals);

  std::vector<Metric> m;
  m.push_back({"workloads.eval_calls", static_cast<double>(evals.size()),
               "count"});
  m.push_back({"workloads.eval_busy_s", client_evals, "s"});
  m.push_back({"workloads.eval_ms.p50",
               evals.empty() ? 0.0
                             : util::median(std::span<const double>(evals)) *
                                   1e3,
               "ms"});
  m.push_back({"workloads.eval_share", ratio(client_evals, wall), "ratio"});

  const double sim_runs = count("sim.ps_runs") + count("sim.allreduce_runs");
  const double sim_busy =
      span_total(totals, "sim.ps_run") + span_total(totals, "sim.allreduce_run");
  m.push_back({"sim.runs", sim_runs, "count"});
  m.push_back({"sim.busy_s", sim_busy, "s"});
  m.push_back({"sim.runs_per_s", ratio(sim_runs, sim_busy), "1/s"});

  const double hyperopt = span_total(totals, "gp.hyperopt");
  const double lml = count("gp.lml_evals");
  m.push_back({"gp.fits",
               span_count(totals, "gp.fit") + span_count(totals, "gp.rff_fit"),
               "count"});
  m.push_back({"gp.hyperopt_s", hyperopt, "s"});
  m.push_back({"gp.lml_evals", lml, "count"});
  m.push_back({"gp.lml_evals_per_s", ratio(lml, hyperopt), "1/s"});

  m.push_back({"core.surrogate_update_s", span_total(totals, "surrogate.update"),
               "s"});
  m.push_back({"core.refit_skipped", count("surrogate.refit_skipped"), "count"});
  const double propose = span_total(totals, "acq.propose");
  const double scored = count("acq.candidates_scored");
  m.push_back({"core.acq_propose_s", propose, "s"});
  m.push_back({"core.acq_scored", scored, "count"});
  m.push_back({"core.acq_scored_per_s", ratio(scored, propose), "1/s"});
  const double appends = span_count(totals, "tuner.journal_append");
  m.push_back({"core.journal_appends", appends, "count"});
  m.push_back({"core.journal_append_ms.mean",
               ratio(span_total(totals, "tuner.journal_append") * 1e3, appends),
               "ms"});
  m.push_back({"core.async_wait_s", span_total(totals, "tuner.async_wait"),
               "s"});

  double server_ops = 0.0;
  for (const char* op :
       {"service.create_session", "service.suggest", "service.report",
        "service.status", "service.close_session"})
    server_ops += span_total(totals, op);
  m.push_back({"service.requests", count("service.requests"), "count"});
  m.push_back({"service.server_op_s", server_ops, "s"});
  m.push_back({"service.queue_s", std::max(0.0, client_ops - server_ops), "s"});
  m.push_back({"service.actor_batch_peak",
               registry.gauge("service.actor_batch_peak").value(), "count"});

  // Tuning quality, deterministic for a seed: the geometric mean over
  // sessions of the ground-truth objective of each session's best config,
  // and the simulated cluster time each search spent.
  double log_obj = 0.0, search_hours = 0.0;
  for (const SessionRecord& s : run.untraced.sessions) {
    log_obj += std::log(s.best_truth);
    search_hours += s.search_hours;
  }
  const double sessions = static_cast<double>(run.untraced.sessions.size());
  m.push_back({"best_obj.gmean", std::exp(log_obj / sessions), "s-or-usd"});
  m.push_back({"search_h.mean", search_hours / sessions, "h"});

  const double untraced_rate = trials_per_second(run.untraced, run.clients);
  const double traced_rate = trials_per_second(traced, run.clients);
  m.push_back({"obs.trace_overhead", ratio(untraced_rate, traced_rate) - 1.0,
               "ratio"});
  // Share of session wall the benchmark can place in a layer: for tune()
  // sessions, tuner.tune time outside the loop's bookkeeping; for service
  // sessions, the client's timed requests and evaluations.
  const double attributed =
      run.attribution.tune_seconds > 0.0
          ? run.attribution.tune_attributed_seconds
          : client_ops + client_evals;
  m.push_back({"bench.attributed_share", ratio(attributed, wall), "ratio"});
  for (const std::string& layer : attribution_layers()) {
    m.push_back({"share." + layer,
                 ratio(run.attribution.self_seconds.at(layer), wall), "ratio"});
  }
  return m;
}

std::string result_line(bool correct, const OpCounts& counts,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(counts.attempted) +
                    ", \"failed\": " + std::to_string(counts.failed) +
                    ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

}  // namespace perfbench
