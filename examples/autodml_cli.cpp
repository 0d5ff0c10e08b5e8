// autodml_cli — command-line front-end for the library.
//
// Subcommands (first positional argument):
//   workloads                      list the workload suite
//   lint       [--workload=W|--all|--demo]
//                                  static-analyze configuration spaces;
//                                  --demo lints a deliberately malformed
//                                  space to showcase the diagnostic codes
//   space      --workload=W        print the configuration space
//   evaluate   --workload=W [--config=k=v,k=v,...]
//                                  ground-truth evaluation of one config
//   tune       --workload=W [--evals=N] [--seed=S] [--objective=time|cost]
//              [--deadline-hours=H] [--acquisition=ei|logei|ucb|pi|eipercost]
//              [--no-early-term] [--session=FILE] [--resume=FILE]
//              [--journal=FILE] [--faults=off|light|heavy] [--retries=N]
//              [--demo] [--trace=FILE] [--metrics=FILE]
//              [--refit-every=K] [--surrogate-backend=auto|exact|rff]
//              [--rff-features=M] [--max-wall-time=SECONDS]
//              [--async-q=Q] [--async-workers=W]
//              [--crash-point=NAME[:K]] [--crash-after=N]
//                                  run the tuner; optionally persist/resume.
//                                  --journal appends every trial to a
//                                  crash-safe journal: rerunning the same
//                                  command after a kill resumes the session.
//                                  --faults injects transient faults and
//                                  --retries supervises evaluations with
//                                  retry + backoff.
//                                  --max-wall-time stops the loop cleanly
//                                  once that much real time has elapsed
//                                  (exit 0; rerun with --journal to resume).
//                                  --async-q keeps Q evaluations in flight
//                                  (kriging-believer fantasized proposals);
//                                  results and journal bytes are identical
//                                  at any --async-workers count. Resume a
//                                  journal with the same --async-q it was
//                                  written with.
//                                  --crash-point/--crash-after arm the chaos
//                                  layer (see util/chaos.h): the process
//                                  calls _exit(86) at the named durability
//                                  point (K-th hit) or at the N-th hit
//                                  overall. Equivalent env vars:
//                                  ADML_CRASH_POINT / ADML_CRASH_AFTER.
//                                  --demo runs the canonical demo session
//                                  (logreg-ads, 30 evaluations, seed 1 —
//                                  the golden-run test pins its results).
//                                  --trace records Chrome trace-event JSON
//                                  (load in Perfetto) and prints a
//                                  per-phase time breakdown; --metrics
//                                  dumps the metrics snapshot (JSON, or
//                                  CSV when FILE ends in .csv). Both are
//                                  observation-only: results are
//                                  bit-identical with them on or off.
//   importance --workload=W [--evals=N]
//                                  tune briefly, print both sensitivity views
//   serve      [--stdio | --socket=PATH] [--workers=N] [--conn-threads=N]
//              [--max-sessions=N] [--max-pending=N]
//                                  tuning-as-a-service daemon speaking the
//                                  line-delimited JSON protocol (see the
//                                  README "Tuning as a service" section).
//                                  --stdio (default) answers one request
//                                  line per stdin line; --socket serves a
//                                  Unix-domain stream socket. Exits when a
//                                  client sends {"op":"shutdown"}.
//
// Exit code 0 on success, 1 on user error, 2 on "no feasible config found".
#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <string>

#include "analysis/space_lint.h"
#include "core/bo_tuner.h"
#include "core/sensitivity.h"
#include "core/session_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/server.h"
#include "service/session_manager.h"
#include "util/arg_parse.h"
#include "util/chaos.h"
#include "util/fs.h"
#include "util/string_util.h"
#include "workloads/eval_supervisor.h"
#include "workloads/objective_adapter.h"

using namespace autodml;

namespace {

void cmd_workloads() {
  std::vector<std::vector<std::string>> rows;
  for (const auto& w : wl::workload_suite()) {
    rows.push_back({w.name, w.description,
                    util::fmt(w.model_bytes / 1e6, 4) + " MB",
                    util::fmt(w.flops_per_sample, 3)});
  }
  std::fputs(util::render_table({"name", "description", "model", "flops/sample"},
                                rows)
                 .c_str(),
             stdout);
}

void cmd_space(const wl::Workload& workload) {
  const conf::ConfigSpace space = wl::build_config_space(workload);
  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < space.num_params(); ++i) {
    const auto& p = space.param(i);
    std::string domain;
    switch (p.kind()) {
      case conf::ParamKind::kInt:
        domain = "int [" + std::to_string(p.int_lo()) + ", " +
                 std::to_string(p.int_hi()) + "]";
        break;
      case conf::ParamKind::kIntChoice: {
        std::vector<std::string> vals;
        for (auto v : p.int_choices()) vals.push_back(std::to_string(v));
        domain = "{" + util::join(vals, ",") + "}";
        break;
      }
      case conf::ParamKind::kContinuous:
        domain = std::string(p.log_scale() ? "log" : "lin") + " [" +
                 util::fmt(p.cont_lo()) + ", " + util::fmt(p.cont_hi()) + "]";
        break;
      case conf::ParamKind::kCategorical:
        domain = "{" + util::join(p.categories(), ",") + "}";
        break;
      case conf::ParamKind::kBool:
        domain = "{false,true}";
        break;
    }
    rows.push_back({p.name(), domain,
                    p.is_conditional() ? "when " + p.parent() + " in {" +
                                             util::join(p.parent_values(), ",") +
                                             "}"
                                       : ""});
  }
  std::fputs(util::render_table({"parameter", "domain", "condition"}, rows)
                 .c_str(),
             stdout);
  std::printf("encoded dimension: %zu\n", space.encoded_dimension());
}

void print_lint_report(const analysis::LintReport& report) {
  if (report.diagnostics.empty()) {
    std::printf("clean: no diagnostics\n");
    return;
  }
  std::vector<std::vector<std::string>> rows;
  for (const auto& d : report.diagnostics) {
    rows.push_back({d.code, std::string(analysis::to_string(d.severity)),
                    d.param.empty() ? "<space>" : d.param, d.message,
                    d.fix_hint});
  }
  std::fputs(util::render_table({"code", "severity", "parameter", "finding",
                                 "fix hint"},
                                rows)
                 .c_str(),
             stdout);
  std::printf("%zu error(s), %zu warning(s)\n", report.error_count(),
              report.warning_count());
}

int cmd_lint(const util::ArgParser& args) {
  const analysis::SpaceLinter linter;
  if (args.get_bool("demo", false)) {
    const auto drafts = analysis::malformed_demo_space();
    std::printf("linting deliberately malformed demo space (%zu params)\n",
                drafts.size());
    const analysis::LintReport report =
        linter.lint(std::span<const analysis::ParamDraft>(drafts));
    print_lint_report(report);
    return report.has_errors() ? 1 : 0;
  }
  std::vector<const wl::Workload*> targets;
  if (args.has("workload") && !args.get_bool("all", false)) {
    targets.push_back(&wl::workload_by_name(args.get("workload", "")));
  } else {
    for (const auto& w : wl::workload_suite()) targets.push_back(&w);
  }
  bool any_errors = false;
  for (const wl::Workload* w : targets) {
    std::printf("-- %s\n", w->name.c_str());
    const analysis::LintReport report =
        linter.lint(wl::build_config_space(*w));
    print_lint_report(report);
    any_errors = any_errors || report.has_errors();
  }
  return any_errors ? 1 : 0;
}

conf::Config parse_config_overrides(const conf::ConfigSpace& space,
                                    const wl::Workload& workload,
                                    const std::string& spec) {
  conf::Config config = wl::default_expert_config(workload, space);
  if (spec.empty()) return config;
  for (const std::string& assignment : util::split(spec, ',')) {
    const auto parts = util::split(assignment, '=');
    if (parts.size() != 2)
      throw std::invalid_argument("bad --config entry: " + assignment);
    const std::string& name = parts[0];
    const std::string& value = parts[1];
    const auto& p = space.param(name);
    switch (p.kind()) {
      case conf::ParamKind::kInt:
      case conf::ParamKind::kIntChoice:
        config.set_int(name, std::stoll(value));
        break;
      case conf::ParamKind::kContinuous:
        config.set_double(name, std::stod(value));
        break;
      case conf::ParamKind::kCategorical:
        config.set_cat(name, value);
        break;
      case conf::ParamKind::kBool:
        config.set_bool(name, util::to_lower(value) == "true");
        break;
    }
  }
  space.canonicalize(config);
  space.validate(config);
  return config;
}

int cmd_evaluate(const wl::Workload& workload, const util::ArgParser& args) {
  wl::Evaluator evaluator(workload,
                          static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const conf::Config config = parse_config_overrides(
      evaluator.space(), workload, args.get("config", ""));
  std::printf("config: %s\n", config.to_string().c_str());
  const wl::EvalResult r = evaluator.evaluate_ground_truth(config);
  if (!r.feasible) {
    std::printf("infeasible: %s\n", r.failure.c_str());
    return 2;
  }
  std::printf("time-to-accuracy: %s h\ncost: $%s (rate $%s/h)\n",
              util::fmt(r.tta_seconds / 3600.0).c_str(),
              util::fmt(r.cost_usd).c_str(),
              util::fmt(r.usd_per_hour).c_str());
  return 0;
}

/// Per-phase wall-clock breakdown from the tracer's closed spans, sorted
/// by total time. Printed after a traced tune so a user sees where the
/// run's time went without opening Perfetto (EXPERIMENTS.md R-O12).
void print_phase_breakdown(obs::Tracer& tracer) {
  const auto totals = tracer.span_totals();
  double tune_total = 0.0;
  if (const auto it = totals.find("tuner.tune"); it != totals.end()) {
    tune_total = it->second.total_seconds;
  }
  std::vector<std::pair<std::string, obs::Tracer::SpanStat>> rows(
      totals.begin(), totals.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_seconds > b.second.total_seconds;
  });
  std::vector<std::vector<std::string>> table;
  for (const auto& [name, stat] : rows) {
    std::string share = "-";
    if (tune_total > 0.0) {
      share = util::fmt(100.0 * stat.total_seconds / tune_total, 3) + "%";
    }
    table.push_back({name, std::to_string(stat.count),
                     util::fmt(stat.total_seconds, 4) + " s", share});
  }
  std::fputs(
      util::render_table({"span", "count", "total", "of tuner.tune"}, table)
          .c_str(),
      stdout);
}

int cmd_tune(const wl::Workload& workload, const util::ArgParser& args) {
  const std::string trace_path = args.get("trace", "");
  const std::string metrics_path = args.get("metrics", "");
  if (!trace_path.empty()) obs::Tracer::instance().start();
  if (!metrics_path.empty()) {
    obs::MetricsRegistry::instance().reset();
    obs::MetricsRegistry::instance().enable();
  }
  wl::EvaluatorOptions eval_options;
  const std::string objective_name = args.get("objective", "time");
  if (objective_name == "cost") {
    eval_options.objective = wl::Objective::kCostToAccuracy;
  } else if (objective_name != "time") {
    std::fprintf(stderr, "unknown --objective=%s\n", objective_name.c_str());
    return 1;
  }
  if (args.has("deadline-hours")) {
    eval_options.deadline_seconds =
        args.get_double("deadline-hours", 0.0) * 3600.0;
  }
  const std::string faults_name = args.get("faults", "off");
  if (faults_name == "light") {
    eval_options.faults = sim::light_fault_spec();
  } else if (faults_name == "heavy") {
    eval_options.faults = sim::heavy_fault_spec();
  } else if (faults_name != "off") {
    std::fprintf(stderr, "unknown --faults=%s (off|light|heavy)\n",
                 faults_name.c_str());
    return 1;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  wl::Evaluator evaluator(workload, seed, eval_options);

  // Under faults (or explicit --retries) evaluations go through the
  // supervisor, which retries transient failures with backoff.
  const bool supervised = eval_options.faults.enabled() || args.has("retries");
  wl::RetryPolicy retry_policy;
  if (args.has("retries")) {
    retry_policy.max_attempts =
        static_cast<int>(args.get_int("retries", 3));
  }
  wl::EvalSupervisor supervisor(evaluator, retry_policy, seed);
  std::unique_ptr<core::ObjectiveFunction> objective;
  if (supervised) {
    objective = std::make_unique<wl::SupervisedObjective>(supervisor);
  } else {
    objective = std::make_unique<wl::EvaluatorObjective>(evaluator);
  }

  core::BoOptions options;
  options.seed = seed;
  options.max_evaluations = static_cast<int>(args.get_int("evals", 30));
  options.acquisition =
      core::acquisition_from_string(args.get("acquisition", "logei"));
  options.early_term.enabled = !args.get_bool("no-early-term", false);
  options.journal_path = args.get("journal", "");
  // Surrogate scaling knobs (see DESIGN.md §6h): hyperopt cadence and the
  // regression backend serving the GPs.
  options.surrogate.hyperopt_every = static_cast<int>(
      args.get_int("refit-every", options.surrogate.hyperopt_every));
  if (options.surrogate.hyperopt_every < 1) {
    std::fprintf(stderr, "--refit-every must be >= 1\n");
    return 1;
  }
  const std::string backend_name = args.get("surrogate-backend", "auto");
  if (backend_name == "exact") {
    options.surrogate.backend = core::SurrogateBackend::kExact;
  } else if (backend_name == "rff") {
    options.surrogate.backend = core::SurrogateBackend::kRff;
  } else if (backend_name != "auto") {
    std::fprintf(stderr, "unknown --surrogate-backend=%s (auto|exact|rff)\n",
                 backend_name.c_str());
    return 1;
  }
  options.surrogate.rff_features = static_cast<int>(
      args.get_int("rff-features", options.surrogate.rff_features));
  if (options.surrogate.rff_features < 1) {
    std::fprintf(stderr, "--rff-features must be >= 1\n");
    return 1;
  }
  if (args.has("max-wall-time")) {
    options.max_wall_seconds = args.get_double("max-wall-time", 0.0);
    if (!(options.max_wall_seconds > 0.0)) {
      std::fprintf(stderr, "--max-wall-time must be > 0 seconds\n");
      return 1;
    }
  }
  // Async pipeline (see BoOptions::async_q): up to Q evaluations in flight,
  // results ingested in proposal order — deterministic at any worker count.
  options.async_q = static_cast<int>(args.get_int("async-q", 1));
  if (options.async_q < 1) {
    std::fprintf(stderr, "--async-q must be >= 1\n");
    return 1;
  }
  options.async_workers =
      static_cast<int>(args.get_int("async-workers", 0));
  if (options.async_workers < 0) {
    std::fprintf(stderr, "--async-workers must be >= 0\n");
    return 1;
  }
  // Chaos arming (testing/fault drills): kill this process at a named
  // durability point, or at the N-th crash-point hit overall.
  if (args.has("crash-point")) {
    const std::string spec = args.get("crash-point", "");
    const std::size_t colon = spec.find(':');
    const std::string name = spec.substr(0, colon);
    std::uint64_t hit = 1;
    if (colon != std::string::npos) {
      hit = std::stoull(spec.substr(colon + 1));
    }
    util::chaos::arm_crash_point(name, hit);
  }
  if (args.has("crash-after")) {
    util::chaos::arm_crash_after(
        static_cast<std::uint64_t>(args.get_int("crash-after", 1)));
  }
  if (args.has("resume")) {
    options.warm_start =
        core::load_trials(args.get("resume", ""), evaluator.space());
    options.initial_design_size = 2;
    std::printf("resumed %zu trials from %s\n", options.warm_start.size(),
                args.get("resume", "").c_str());
  }

  core::BoTuner tuner(*objective, options);
  const core::TuningResult result = tuner.tune();
  if (result.wall_deadline_hit) {
    std::printf(
        "wall-clock deadline (%s s) hit after %zu trials; stopped cleanly"
        "%s\n",
        util::fmt(options.max_wall_seconds).c_str(), result.trials.size(),
        options.journal_path.empty()
            ? ""
            : " (rerun with the same --journal to resume)");
  }
  if (!trace_path.empty()) {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.stop();
    util::write_file_atomic(trace_path, tracer.export_chrome_json());
    std::printf("trace written to %s (%zu events; open in Perfetto)\n",
                trace_path.c_str(), tracer.event_count());
    print_phase_breakdown(tracer);
  }
  if (!metrics_path.empty()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
    registry.disable();
    const bool csv = metrics_path.size() >= 4 &&
                     metrics_path.substr(metrics_path.size() - 4) == ".csv";
    util::write_file_atomic(
        metrics_path, csv ? registry.snapshot_csv()
                          : util::dump_json(registry.snapshot_json(), 1));
    std::printf("metrics snapshot written to %s\n", metrics_path.c_str());
  }
  if (tuner.replayed_trials() > 0) {
    std::printf("journal %s: replayed %zu trials without re-evaluating\n",
                options.journal_path.c_str(), tuner.replayed_trials());
  }
  // Search cost from the trial records, journal-replayed trials included
  // (the evaluator's ledger charges only the runs this process made).
  int attempts = 0, transients = 0;
  for (const core::Trial& t : result.trials) {
    attempts += t.outcome.attempts;
    if (t.outcome.transient_failure()) ++transients;
  }
  if (supervised) {
    std::printf(
        "fault environment %s: %d attempts across %zu evaluations, "
        "%d unrecovered transient failure(s)\n",
        faults_name.c_str(), attempts, result.trials.size(), transients);
  }
  if (args.has("session")) {
    core::save_trials(args.get("session", ""), result.trials);
    std::printf("session saved to %s\n", args.get("session", "").c_str());
  }
  if (!result.found_feasible()) {
    std::printf("no feasible configuration found in %zu evaluations\n",
                result.trials.size());
    return 2;
  }
  const wl::EvalResult truth =
      evaluator.evaluate_ground_truth(result.best_config);
  std::printf("best config: %s\n", result.best_config.to_string().c_str());
  std::printf("objective (%s): %s\n", objective_name.c_str(),
              util::fmt(result.best_objective).c_str());
  if (truth.feasible) {
    std::printf("ground truth: TTA %s h, cost $%s\n",
                util::fmt(truth.tta_seconds / 3600.0).c_str(),
                util::fmt(truth.cost_usd).c_str());
  }
  std::printf("search cost: %s simulated hours over %d runs\n",
              util::fmt(result.total_spent_seconds / 3600.0).c_str(),
              attempts);
  return 0;
}

int cmd_importance(const wl::Workload& workload, const util::ArgParser& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  wl::Evaluator evaluator(workload, seed);
  wl::EvaluatorObjective objective(evaluator);
  core::BoOptions options;
  options.seed = seed;
  options.max_evaluations = static_cast<int>(args.get_int("evals", 35));
  core::BoTuner tuner(objective, options);
  tuner.tune();
  const math::Vec relevance = tuner.surrogate().ard_relevance();
  if (relevance.empty()) {
    std::printf("surrogate never became ready (all runs failed?)\n");
    return 2;
  }
  const auto ard = core::ard_param_importance(evaluator.space(), relevance);
  util::Rng rng(seed + 1);
  const auto variance = core::variance_importance(
      tuner.surrogate(), evaluator.space(), rng);
  std::vector<std::vector<std::string>> rows;
  for (const auto& a : ard) {
    std::string var_share = "-";
    for (const auto& v : variance) {
      if (v.param == a.param) var_share = util::fmt(v.importance, 3);
    }
    rows.push_back({a.param, util::fmt(a.importance, 3), var_share});
  }
  std::fputs(
      util::render_table({"parameter", "ARD", "variance-share"}, rows).c_str(),
      stdout);
  return 0;
}

int cmd_serve(const util::ArgParser& args) {
  service::ServiceOptions options;
  options.workers = static_cast<std::size_t>(args.get_int("workers", 4));
  options.max_sessions =
      static_cast<std::size_t>(args.get_int("max-sessions", 4096));
  options.default_max_pending =
      static_cast<int>(args.get_int("max-pending", 16));
  service::SessionManager manager(options);
  const std::string socket_path = args.get("socket", "");
  if (!socket_path.empty()) {
    service::ServerOptions server_options;
    server_options.socket_path = socket_path;
    server_options.connection_threads =
        static_cast<std::size_t>(args.get_int("conn-threads", 8));
    service::SocketServer server(manager, server_options);
    server.serve();  // returns once a shutdown request is served
    return 0;
  }
  // --stdio (the default): one request line in, one response line out.
  // Scriptable from anything that can pipe LDJSON; also the transport the
  // protocol conformance tests drive.
  std::string line;
  while (!manager.shutdown_requested() && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::fputs((manager.handle_line(line) + "\n").c_str(), stdout);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const std::string command = argc > 1 && argv[1][0] != '-' ? argv[1] : "";
  try {
    if (command == "workloads") {
      cmd_workloads();
      return 0;
    }
    if (command == "lint") return cmd_lint(args);
    // serve needs no workload: session spaces arrive over the wire.
    if (command == "serve") return cmd_serve(args);
    if (command.empty()) {
      std::fprintf(stderr,
                   "usage: autodml_cli <workloads|lint|space|evaluate|tune|"
                   "importance|serve> [--flags]\n");
      return 1;
    }
    // --demo pins the canonical demo session (the one the golden-run test
    // locks down): logreg-ads with the default 30 evaluations and seed 1.
    const wl::Workload& workload =
        args.get_bool("demo", false)
            ? wl::workload_by_name("logreg-ads")
            : wl::workload_by_name(args.get("workload", "logreg-ads"));
    if (command == "space") {
      cmd_space(workload);
      return 0;
    }
    if (command == "evaluate") return cmd_evaluate(workload, args);
    if (command == "tune") return cmd_tune(workload, args);
    if (command == "importance") return cmd_importance(workload, args);
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
