#include "runner.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "client_model.h"
#include "core/bo_tuner.h"
#include "core/session_io.h"
#include "service/protocol.h"
#include "service/session.h"
#include "service/session_manager.h"
#include "service/space_json.h"
#include "sim/fault_injector.h"
#include "timed_objective.h"
#include "util/json.h"
#include "util/rng.h"
#include "workloads/eval_supervisor.h"
#include "workloads/evaluator.h"
#include "workloads/objective_adapter.h"

namespace perfbench {

namespace {

namespace core = autodml::core;
namespace service = autodml::service;
namespace util = autodml::util;
namespace wl = autodml::wl;

using util::JsonValue;

/// Outstanding suggestions a burst service session keeps.
constexpr int kBurstDepth = 4;

/// Session k's tuner and evaluator seed. 31 bits, so it travels exactly in
/// the service's JSON numbers.
std::uint64_t session_seed(std::int64_t k) {
  util::Rng rng(static_cast<std::uint64_t>(k) + 1);
  return rng.next_u64() >> 33;
}

/// The order sessions 0 .. n-1 are dispatched in: a permutation drawn from
/// the benchmark seed.
std::vector<std::int64_t> dispatch_order(std::int64_t n, std::uint64_t seed) {
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  util::Rng rng(seed);
  for (std::int64_t i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  }
  return order;
}

/// Idle gaps between consecutive evaluations: for each evaluation after the
/// first, the time from the latest end among earlier evaluations to its
/// start, or 0 when it started while one was still in flight.
std::vector<double> idle_gaps(const std::vector<EvalInterval>& intervals) {
  std::vector<double> gaps;
  if (intervals.empty()) return gaps;
  Clock::time_point latest_end = intervals.front().end;
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    gaps.push_back(
        std::max(0.0, seconds_between(latest_end, intervals[i].start)));
    latest_end = std::max(latest_end, intervals[i].end);
  }
  return gaps;
}

void fail(SessionRecord& record, const std::string& why) {
  if (record.check_failures == 0) record.failure = why;
  ++record.check_failures;
}

// ---- tune-zoo / tune-async: BoTuner::tune() over the real evaluator -------

/// Everything `autodml_cli tune` builds before its first trial.
struct TuneSetup {
  TuneSetup(const RunOptions& options, const wl::Workload& workload,
            std::uint64_t seed)
      : evaluator(workload, seed, evaluator_options(options)),
        supervisor(evaluator, wl::RetryPolicy{}, seed),
        inner(async(options)
                  ? std::unique_ptr<core::ObjectiveFunction>(
                        std::make_unique<wl::SupervisedObjective>(supervisor))
                  : std::make_unique<wl::EvaluatorObjective>(evaluator)),
        timed(*inner, options.inside_run),
        tuner(timed, tuner_options(options, seed)) {}

  static bool async(const RunOptions& options) {
    return options.workload == Workload::kTuneAsync;
  }
  static wl::EvaluatorOptions evaluator_options(const RunOptions& options) {
    wl::EvaluatorOptions eval_options;
    if (async(options)) {
      eval_options.objective = wl::Objective::kCostToAccuracy;
      eval_options.faults = autodml::sim::light_fault_spec();
    }
    return eval_options;
  }
  static core::BoOptions tuner_options(const RunOptions& options,
                                       std::uint64_t seed) {
    core::BoOptions bo;
    bo.seed = seed;
    bo.max_evaluations = options.evaluations;
    if (async(options)) {
      bo.async_q = 4;
      bo.async_workers =
          std::max(1, std::min(bo.async_q, hardware_threads() - 1));
    }
    return bo;
  }

  wl::Evaluator evaluator;
  wl::EvalSupervisor supervisor;
  std::unique_ptr<core::ObjectiveFunction> inner;
  TimedObjective timed;
  core::BoTuner tuner;
};

const wl::Workload& zoo_workload(std::int64_t i) {
  const std::vector<wl::Workload>& suite = wl::workload_suite();
  return suite[static_cast<std::size_t>(i) % suite.size()];
}

SessionRecord run_tune_session(const RunOptions& options, std::int64_t k) {
  const wl::Workload& workload = zoo_workload(k);
  SessionRecord record;
  record.index = k;
  record.workload = workload.name;
  record.seed = session_seed(k);

  TuneSetup setup(options, workload, record.seed);
  const Clock::time_point t0 = Clock::now();
  const core::TuningResult result = setup.tuner.tune();
  record.wall_seconds = seconds_between(t0, Clock::now());
  const TimedObjective& timed = setup.timed;
  wl::Evaluator& evaluator = setup.evaluator;

  const std::vector<EvalInterval> intervals = timed.intervals();
  record.trials = static_cast<int>(result.trials.size());
  record.eval_gaps = idle_gaps(intervals);
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    record.eval_seconds.push_back(
        seconds_between(intervals[i].start, intervals[i].end));
    // The in-process report: a checkpoint handed to the tuner's early-
    // termination controller, answered with a verdict.
    for (double v : intervals[i].verdict_seconds) {
      record.report.push_back(v);
      record.verdict_seconds += v;
    }
    // The in-process suggest: the idle gap before a model-guided
    // evaluation (fold in the previous result, refit, maximize the
    // acquisition). Model-guided evaluations are the ones that run under
    // the early-termination controller.
    if (intervals[i].guided && i > 0)
      record.suggest.push_back(record.eval_gaps[i - 1]);
  }

  if (record.trials != options.evaluations || result.wall_deadline_hit)
    fail(record, "session did not spend its evaluation budget");
  if (static_cast<int>(intervals.size()) != record.trials)
    fail(record, "evaluations seen by the objective != trials");
  if (!result.found_feasible()) {
    fail(record, "no feasible configuration found");
  } else {
    const wl::EvalResult truth =
        evaluator.evaluate_ground_truth(result.best_config);
    record.best_truth =
        truth.objective_value(evaluator.options().objective);
    if (!(record.best_truth > 0.0 &&
          record.best_truth < std::numeric_limits<double>::infinity()))
      fail(record, "best configuration is infeasible at ground truth");
  }
  record.search_hours = evaluator.total_spent_seconds() / 3600.0;
  return record;
}

// ---- service-mix: loopback clients against one SessionManager -------------

/// One client-timed request. Counts it, and its ok:true answer, on the
/// session record.
JsonValue timed_request(service::SessionManager& manager,
                        const std::string& line, SessionRecord& record,
                        std::vector<double>* latencies) {
  const Clock::time_point t0 = Clock::now();
  const std::string reply = manager.handle_line(line);
  const double seconds = seconds_between(t0, Clock::now());
  ++record.requests;
  record.client_op_seconds += seconds;
  if (latencies != nullptr) latencies->push_back(seconds);
  JsonValue value = util::parse_json(reply);
  if (value.contains("ok") && value.at("ok").is_bool() &&
      value.at("ok").as_bool()) {
    ++record.ok_responses;
  } else {
    fail(record, "request failed: " + reply);
  }
  return value;
}

SessionRecord run_service_session(const RunOptions& options,
                                  service::SessionManager& manager,
                                  std::int64_t k) {
  // Session kinds cycle 2x2: burst (kBurstDepth outstanding) or serial,
  // journaled or not; the zoo workload advances every four sessions.
  // report_ms samples the reports of sessions without a journal. A
  // journaled report also appends and fsyncs, which takes about 5x longer,
  // so over all reports the median would sit on the boundary between the
  // two kinds; and the fsync tail follows the disk's other load (its p90
  // ranged 0.5-4.7 ms between runs on one host). The journal's own cost is
  // the per-layer core.journal_append_ms.mean.
  const bool burst = k % 2 == 1;
  const bool journaled = (k / 2) % 2 == 1;
  const wl::Workload& workload = zoo_workload(k / 4);
  SessionRecord record;
  record.index = k;
  record.workload = workload.name;
  record.seed = session_seed(k);
  const std::string id = "s" + std::to_string(k);
  const std::string journal =
      journaled ? options.scratch_dir + "/" + id + ".journal" : "";

  const autodml::conf::ConfigSpace space = wl::build_config_space(workload);
  std::string create =
      R"({"op":"create-session","session":")" + id +
      R"(","seed":)" + std::to_string(record.seed) +
      R"(,"target_metric":)" + util::dump_json(workload.stat.target_metric);
  if (journaled) create += R"(,"journal":)" + util::dump_json(journal);
  create += R"(,"options":{"max_evaluations":)" +
            std::to_string(options.evaluations) +
            R"(,"early_term":false},"space":)" +
            util::dump_json(service::space_to_json(space)) + "}";

  const Clock::time_point t0 = Clock::now();
  timed_request(manager, create, record, nullptr);

  struct Pending {
    std::int64_t ticket;
    autodml::conf::Config config;
  };
  std::deque<Pending> pending;
  const int depth = burst ? kBurstDepth : 1;
  int asked = 0;
  bool have_last_eval = false;
  Clock::time_point last_eval_end;
  double spent_seconds = 0.0;
  while (record.check_failures == 0 && record.trials < options.evaluations) {
    while (static_cast<int>(pending.size()) < depth &&
           asked < options.evaluations && record.check_failures == 0) {
      const JsonValue ask = timed_request(
          manager, R"({"op":"suggest","session":")" + id + R"("})", record,
          &record.suggest);
      if (record.check_failures != 0) break;
      pending.push_back(
          {static_cast<std::int64_t>(ask.at("ticket").as_number()),
           service::config_from_json(ask.at("config"), space)});
      ++asked;
    }
    if (pending.empty()) break;
    const Pending next = std::move(pending.front());
    pending.pop_front();

    const Clock::time_point eval_start = Clock::now();
    if (have_last_eval)
      record.eval_gaps.push_back(seconds_between(last_eval_end, eval_start));
    const core::RunOutcome outcome = client_evaluate(
        workload, next.config,
        record.seed ^ (static_cast<std::uint64_t>(next.ticket) << 32),
        /*noisy=*/true);
    last_eval_end = Clock::now();
    have_last_eval = true;
    record.eval_seconds.push_back(seconds_between(eval_start, last_eval_end));
    spent_seconds += outcome.spent_seconds;

    timed_request(manager,
                  R"({"op":"report","session":")" + id + R"(","ticket":)" +
                      std::to_string(next.ticket) + R"(,"outcome":)" +
                      util::dump_json(service::outcome_to_json(outcome)) +
                      "}",
                  record, journaled ? nullptr : &record.report);
    ++record.trials;
  }

  const JsonValue closed = timed_request(
      manager, R"({"op":"close-session","session":")" + id + R"("})", record,
      nullptr);
  record.wall_seconds = seconds_between(t0, Clock::now());
  record.search_hours = spent_seconds / 3600.0;

  if (record.check_failures == 0) {
    if (closed.at("trials").as_number() != options.evaluations ||
        !closed.at("done").as_bool()) {
      fail(record, "session did not spend its evaluation budget");
    } else if (closed.at("best_config").is_null()) {
      fail(record, "no feasible configuration found");
    } else {
      const core::RunOutcome truth = client_evaluate(
          workload,
          service::config_from_json(closed.at("best_config"), space),
          /*noise_seed=*/0, /*noisy=*/false);
      record.best_truth = truth.objective;
      if (!truth.feasible)
        fail(record, "best configuration is infeasible at ground truth");
    }
  }
  if (journaled) {
    try {
      const core::LoadedJournal loaded = core::load_journal(journal, space);
      if (static_cast<int>(loaded.trials.size()) != record.trials)
        fail(record, "journal does not reload to the session's trials");
    } catch (const std::exception& e) {
      fail(record, std::string("journal does not reload: ") + e.what());
    }
    std::filesystem::remove(journal);
  }
  return record;
}

/// Times kSetupRounds rounds of session set-up while nothing else runs.
/// Each round sets up one session per zoo workload, as a tune client does
/// (evaluator, objective, tuner), or as the service does for create-session
/// (space from JSON, tuner; no journal, whose fsync would time the disk).
std::vector<double> measure_setup(const RunOptions& options) {
  constexpr int kSetupRounds = 25;
  const std::size_t zoo = wl::workload_suite().size();
  std::vector<double> rounds;
  for (int r = 0; r < kSetupRounds; ++r) {
    double seconds = 0.0;
    for (std::size_t w = 0; w < zoo; ++w) {
      const wl::Workload& workload = zoo_workload(static_cast<std::int64_t>(w));
      const std::uint64_t seed = session_seed(static_cast<std::int64_t>(w));
      if (options.workload != Workload::kServiceMix) {
        const Clock::time_point t0 = Clock::now();
        const TuneSetup setup(options, workload, seed);
        seconds += seconds_between(t0, Clock::now());
        continue;
      }
      const JsonValue space =
          service::space_to_json(wl::build_config_space(workload));
      service::SessionConfig config;
      config.id = "setup";
      config.options.seed = seed;
      config.options.max_evaluations = options.evaluations;
      config.options.early_term.enabled = false;
      config.target_metric = workload.stat.target_metric;
      const Clock::time_point t0 = Clock::now();
      const service::TuningSession session(std::move(config), space);
      seconds += seconds_between(t0, Clock::now());
    }
    rounds.push_back(seconds);
  }
  return rounds;
}

}  // namespace

Workload workload_from_name(const std::string& name) {
  if (name == "tune-zoo") return Workload::kTuneZoo;
  if (name == "tune-async") return Workload::kTuneAsync;
  if (name == "service-mix") return Workload::kServiceMix;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (tune-zoo | tune-async | service-mix)");
}

int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

RunRecord run_workload(const RunOptions& options) {
  const bool service_mix = options.workload == Workload::kServiceMix;
  std::unique_ptr<service::SessionManager> manager;
  if (service_mix) {
    std::filesystem::create_directories(options.scratch_dir);
    service::ServiceOptions service_options;
    service_options.workers = static_cast<std::size_t>(options.clients);
    manager = std::make_unique<service::SessionManager>(service_options);
  }

  RunRecord run;
  run.setup_rounds = measure_setup(options);
  const std::vector<std::int64_t> order =
      dispatch_order(options.sessions, options.seed);
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  const auto client = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= order.size()) return;
      const std::int64_t k = order[i];
      SessionRecord record;
      try {
        record = service_mix ? run_service_session(options, *manager, k)
                             : run_tune_session(options, k);
      } catch (const std::exception& e) {
        record.index = k;
        fail(record, std::string("session threw: ") + e.what());
      }
      std::lock_guard<std::mutex> lock(mu);
      run.sessions.push_back(std::move(record));
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < options.clients; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  manager.reset();

  std::sort(run.sessions.begin(), run.sessions.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              return a.index < b.index;
            });
  return run;
}

}  // namespace perfbench
