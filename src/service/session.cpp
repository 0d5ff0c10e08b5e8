#include "service/session.h"

#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/error.h"
#include "service/protocol.h"
#include "service/space_json.h"

namespace autodml::service {

namespace {

using util::JsonObject;
using util::JsonValue;

JsonValue finite_or_null(double v) {
  return std::isfinite(v) ? JsonValue(v) : JsonValue(nullptr);
}

}  // namespace

core::RunOutcome RemoteObjective::run(const conf::Config&,
                                      core::RunController*) {
  // Ask/tell mode never evaluates; reaching this means a tune() path was
  // driven against a service session, which is a programming error.
  throw std::logic_error(
      "RemoteObjective: run() called — service sessions evaluate "
      "client-side");
}

TuningSession::TuningSession(SessionConfig config,
                             const util::JsonValue& space_json)
    : id_(config.id), config_(std::move(config)) {
  space_ = std::make_unique<conf::ConfigSpace>(space_from_json(space_json));
  objective_ = std::make_unique<RemoteObjective>(
      *space_, config_.target_metric, config_.objective_is_cost);
  try {
    tuner_ =
        std::make_unique<core::BoTuner>(*objective_, config_.options);
    replayed_ = tuner_->drain_replay();
  } catch (const std::invalid_argument& e) {
    // Space lint errors, journal seed/shape mismatches, a journal whose
    // replay diverges, bad option combos: all caused by the create request
    // (or a stale journal it pointed at).
    throw ServiceError(errc::kInvalidSpace, e.what());
  }
  if (replayed_ > 0) {
    ADML_COUNT("service.sessions_resumed", 1);
    ADML_COUNT("service.trials_replayed",
               static_cast<std::int64_t>(replayed_));
  }
}

JsonObject TuningSession::suggest() {
  if (static_cast<int>(tuner_->session_pending()) >= config_.max_pending) {
    throw ServiceError(
        errc::kTooManyPending,
        "session '" + id_ + "' already has " +
            std::to_string(tuner_->session_pending()) +
            " outstanding suggestions (max_pending = " +
            std::to_string(config_.max_pending) + "); report some first");
  }
  std::optional<core::BoTuner::SessionAsk> ask = tuner_->ask_next();
  if (!ask) {
    throw ServiceError(errc::kBudgetExhausted,
                       "session '" + id_ +
                           "' has exhausted its evaluation budget");
  }
  ADML_COUNT("service.suggests", 1);
  JsonObject out;
  out.emplace("ticket", JsonValue(ask->ticket));
  out.emplace("config", config_to_json(ask->config));
  out.emplace("allow_early_term", JsonValue(ask->allow_early_term));
  out.emplace("incumbent", finite_or_null(ask->incumbent));
  return out;
}

JsonObject TuningSession::report(std::int64_t ticket,
                                 const util::JsonValue& outcome_json) {
  core::Trial trial;
  trial.outcome = outcome_from_json(outcome_json);  // validate before mutate
  try {
    tuner_->tell_next(ticket, std::move(trial));
  } catch (const std::invalid_argument& e) {
    throw ServiceError(errc::kUnknownTicket, e.what());
  }
  ADML_COUNT("service.reports", 1);
  const core::TuningResult& result = tuner_->session_result();
  if (result.found_feasible()) {
    // Per-session incumbent gauge: dynamic names are fine for metrics
    // (only span names must be literal), and the registry never deletes
    // instruments, so closed sessions keep their final best visible.
    ADML_GAUGE_SET(("service.session_best." + id_), result.best_objective);
  }
  return status_fields();
}

JsonObject TuningSession::status() const { return status_fields(); }

JsonObject TuningSession::status_fields() const {
  const core::TuningResult& result = tuner_->session_result();
  JsonObject out;
  out.emplace("session", JsonValue(id_));
  out.emplace("trials",
              JsonValue(static_cast<double>(result.trials.size())));
  out.emplace("pending",
              JsonValue(static_cast<double>(tuner_->session_pending())));
  out.emplace("best_objective", finite_or_null(result.best_objective));
  out.emplace("best_config", result.found_feasible()
                                 ? config_to_json(result.best_config)
                                 : JsonValue(nullptr));
  out.emplace("total_spent_seconds",
              JsonValue(result.total_spent_seconds));
  out.emplace("done", JsonValue(tuner_->session_done()));
  out.emplace("replayed", JsonValue(static_cast<double>(replayed_)));
  return out;
}

}  // namespace autodml::service
