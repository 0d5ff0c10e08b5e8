#include "service/session_manager.h"

#include <limits>
#include <utility>

#include "core/acquisition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/error.h"

namespace autodml::service {

namespace {

using util::JsonObject;
using util::JsonValue;

int positive_int_option(const JsonValue& options, const std::string& key) {
  const std::int64_t v = require_int_field(options, key, "options");
  if (v <= 0 || v > std::numeric_limits<int>::max())
    throw ServiceError(errc::kBadRequest,
                       "options: '" + key + "' must be in [1, INT_MAX]");
  return static_cast<int>(v);
}

/// create-session request -> tuner configuration. Every option key is
/// validated; an unknown key is rejected loudly (a typo silently falling
/// back to a default would tune the wrong thing for the whole session).
SessionConfig parse_session_config(const Request& request,
                                   const ServiceOptions& defaults) {
  if (request.session.empty())
    throw ServiceError(errc::kBadRequest,
                       "create-session: non-empty 'session' id required");
  SessionConfig config;
  config.id = request.session;
  config.max_pending = defaults.default_max_pending;
  core::BoOptions& bo = config.options;
  // Service sessions drive the tuner's ask/tell core directly; the client
  // controls evaluation parallelism by how many suggestions it holds
  // outstanding, not by server-side executor knobs. async_q = 1 only sets
  // how replay reads legacy journal records without an ingested_at_ask
  // field: as a serial drive.
  bo.async_q = 1;
  bo.async_workers = 0;

  const JsonValue& body = request.body;
  if (body.contains("seed")) {
    const std::int64_t seed = require_int_field(body, "seed", "request");
    if (seed < 0)
      throw ServiceError(errc::kBadRequest, "request: 'seed' must be >= 0");
    bo.seed = static_cast<std::uint64_t>(seed);
  }
  if (body.contains("journal")) {
    bo.journal_path = require_string_field(body, "journal", "request");
    if (bo.journal_path.empty())
      throw ServiceError(errc::kBadRequest,
                         "request: 'journal' must be a non-empty path");
  }
  if (body.contains("target_metric"))
    config.target_metric =
        require_number_field(body, "target_metric", "request");
  if (body.contains("objective_is_cost"))
    config.objective_is_cost =
        require_bool_field(body, "objective_is_cost", "request");
  if (!body.contains("options")) return config;

  const JsonValue& options = body.at("options");
  if (!options.is_object())
    throw ServiceError(errc::kBadRequest,
                       "request: 'options' must be an object");
  for (const auto& [key, value] : options.as_object()) {
    if (key == "max_evaluations") {
      bo.max_evaluations = positive_int_option(options, key);
    } else if (key == "initial_design_size") {
      bo.initial_design_size = positive_int_option(options, key);
    } else if (key == "max_pending") {
      config.max_pending = positive_int_option(options, key);
    } else if (key == "acquisition") {
      const std::string name =
          require_string_field(options, key, "options");
      try {
        bo.acquisition = core::acquisition_from_string(name);
      } catch (const std::invalid_argument& e) {
        throw ServiceError(errc::kBadRequest,
                           std::string("options: ") + e.what());
      }
    } else if (key == "random_interleave_prob") {
      const double p = require_number_field(options, key, "options");
      if (!(p >= 0.0 && p <= 1.0))
        throw ServiceError(
            errc::kBadRequest,
            "options: 'random_interleave_prob' must be in [0, 1]");
      bo.random_interleave_prob = p;
    } else if (key == "max_spent_seconds") {
      const double s = require_number_field(options, key, "options");
      if (!(s > 0.0))
        throw ServiceError(errc::kBadRequest,
                           "options: 'max_spent_seconds' must be > 0");
      bo.max_spent_seconds = s;
    } else if (key == "early_term") {
      bo.early_term.enabled = require_bool_field(options, key, "options");
    } else if (key == "gp_restarts") {
      bo.surrogate.gp.restarts = positive_int_option(options, key);
    } else if (key == "gp_adam_iterations") {
      bo.surrogate.gp.adam_iterations = positive_int_option(options, key);
    } else if (key == "acq_random_candidates") {
      bo.acq_optimizer.random_candidates = positive_int_option(options, key);
    } else if (key == "refit_every") {
      bo.surrogate.hyperopt_every = positive_int_option(options, key);
    } else {
      throw ServiceError(errc::kBadRequest,
                         "options: unknown key '" + key + "'");
    }
  }
  return config;
}

}  // namespace

SessionManager::SessionManager(ServiceOptions options)
    : options_(options),
      pool_(std::make_unique<util::ThreadPool>(
          options.workers > 0 ? options.workers : 1)) {}

SessionManager::~SessionManager() {
  // ~ThreadPool drains the queue, so every in-flight drain finishes (and
  // every waiting handle_line caller gets its reply) before teardown.
  pool_.reset();
}

bool SessionManager::shutdown_requested() const {
  util::MutexLock lock(shutdown_mu_);
  return shutdown_;
}

std::string SessionManager::format_error(const Request& request,
                                         const std::string& code,
                                         const std::string& detail) {
  ADML_COUNT("service.errors", 1);
  return error_line(request, code, detail);
}

std::string SessionManager::handle_line(const std::string& line) {
  ADML_SPAN("service.handle_line");
  ADML_COUNT("service.requests", 1);
  Request request;
  try {
    request = parse_request(line);
  } catch (const ServiceError& e) {
    return format_error(Request{}, e.code(), e.what());
  }
  try {
    return dispatch(request);
  } catch (const ServiceError& e) {
    return format_error(request, e.code(), e.what());
  } catch (const std::exception& e) {
    return format_error(request, errc::kInternal, e.what());
  }
}

std::string SessionManager::dispatch(const Request& request) {
  if (request.op == "ping") {
    JsonObject fields;
    fields.emplace("pong", JsonValue(true));
    return ok_line(request, std::move(fields));
  }
  if (request.op == "stats") {
    JsonObject fields;
    {
      util::MutexLock lock(mu_);
      fields.emplace("sessions_active",
                     JsonValue(static_cast<double>(sessions_.size())));
      fields.emplace("sessions_created",
                     JsonValue(static_cast<double>(sessions_created_)));
    }
    fields.emplace("workers", JsonValue(static_cast<double>(pool_->size())));
    return ok_line(request, std::move(fields));
  }
  if (request.op == "shutdown") {
    {
      util::MutexLock lock(shutdown_mu_);
      shutdown_ = true;
    }
    JsonObject fields;
    fields.emplace("stopping", JsonValue(true));
    return ok_line(request, std::move(fields));
  }
  if (request.op == "create-session") return handle_create(request);
  if (request.op == "suggest" || request.op == "report" ||
      request.op == "status" || request.op == "close-session") {
    return route_to_session(request);
  }
  throw ServiceError(errc::kUnknownOp,
                     "unknown op '" + request.op + "'");
}

std::string SessionManager::handle_create(const Request& request) {
  auto config = std::make_shared<SessionConfig>(
      parse_session_config(request, options_));
  require_field(request.body, "space", "create-session");  // fail fast

  auto entry = std::make_shared<Entry>();
  {
    // Admission + registration are atomic under the manager mutex: a
    // duplicate id or a journal path another live session owns is rejected
    // before any state exists.
    util::MutexLock lock(mu_);
    if (sessions_.count(config->id) != 0) {
      throw ServiceError(errc::kSessionExists,
                         "session '" + config->id + "' already exists");
    }
    if (sessions_.size() >= options_.max_sessions) {
      throw ServiceError(
          errc::kTooManySessions,
          "session limit reached (" + std::to_string(options_.max_sessions) +
              " active); close sessions or raise --max-sessions");
    }
    if (!config->options.journal_path.empty()) {
      auto [it, inserted] = journal_owners_.emplace(
          config->options.journal_path, config->id);
      if (!inserted) {
        throw ServiceError(errc::kJournalInUse,
                           "journal '" + config->options.journal_path +
                               "' is owned by live session '" + it->second +
                               "'");
      }
    }
    sessions_.emplace(config->id, entry);
    ++sessions_created_;
    ADML_COUNT("service.sessions_created", 1);
    ADML_GAUGE_SET("service.sessions_active",
                   static_cast<double>(sessions_.size()));
  }

  // Construction (space parse, GP setup, journal replay) runs on the pool
  // as the actor's first op; anything racing in behind it queues in order.
  Op op;
  op.request = request;
  op.create_config = std::move(config);
  op.reply = std::make_shared<std::promise<std::string>>();
  std::future<std::string> reply = op.reply->get_future();
  enqueue(entry, std::move(op));
  return reply.get();
}

std::string SessionManager::route_to_session(const Request& request) {
  std::shared_ptr<Entry> entry = find_entry(request.session);
  Op op;
  op.request = request;
  op.reply = std::make_shared<std::promise<std::string>>();
  std::future<std::string> reply = op.reply->get_future();
  enqueue(entry, std::move(op));
  return reply.get();
}

std::shared_ptr<SessionManager::Entry> SessionManager::find_entry(
    const std::string& id) const {
  if (id.empty())
    throw ServiceError(errc::kBadRequest,
                       "request: non-empty 'session' id required");
  util::MutexLock lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end())
    throw ServiceError(errc::kUnknownSession, "no session '" + id + "'");
  return it->second;
}

void SessionManager::enqueue(const std::shared_ptr<Entry>& entry, Op op) {
  bool schedule = false;
  {
    util::MutexLock lock(entry->queue_mu);
    entry->queue.push_back(std::move(op));
    if (!entry->draining) {
      entry->draining = true;
      schedule = true;
    }
  }
  if (schedule) {
    auto self = entry;
    (void)pool_->submit([this, self] { drain(self); });
  }
}

void SessionManager::drain(const std::shared_ptr<Entry>& entry) {
  ADML_SPAN("service.actor_drain");
  std::size_t batch = 0;
  while (true) {
    Op op;
    {
      util::MutexLock lock(entry->queue_mu);
      if (entry->queue.empty()) {
        entry->draining = false;
        break;
      }
      op = std::move(entry->queue.front());
      entry->queue.pop_front();
    }
    ++batch;
    std::string response;
    {
      util::MutexLock lock(entry->state_mu);
      response = execute_op(*entry, op);
    }
    op.reply->set_value(std::move(response));
  }
  // Batch depth > 1 means a burst against one session was served by a
  // single drain — the suggest-amortization path.
  ADML_GAUGE_MAX("service.actor_batch_peak", static_cast<double>(batch));
}

std::string SessionManager::execute_op(Entry& entry, Op& op) {
  const Request& request = op.request;
  try {
    if (request.op == "create-session") {
      ADML_SPAN("service.create_session");
      TuningSession* session = nullptr;
      try {
        entry.session = std::make_unique<TuningSession>(
            *op.create_config, request.body.at("space"));
        session = entry.session.get();
      } catch (...) {
        // Construction failed: retract the registration made at admission
        // so the id (and journal path) are immediately reusable.
        entry.closed = true;
        forget_session(op.create_config->id,
                       op.create_config->options.journal_path);
        throw;
      }
      JsonObject fields = session->status();
      return ok_line(request, std::move(fields));
    }
    if (entry.closed) {
      throw ServiceError(errc::kSessionClosed,
                         "session '" + request.session + "' was closed");
    }
    if (!entry.session) {
      throw ServiceError(errc::kUnknownSession,
                         "session '" + request.session + "' failed to "
                         "initialize");
    }
    if (request.op == "suggest") {
      ADML_SPAN("service.suggest");
      return ok_line(request, entry.session->suggest());
    }
    if (request.op == "report") {
      ADML_SPAN("service.report");
      const std::int64_t ticket =
          require_int_field(request.body, "ticket", "report");
      const JsonValue& outcome =
          require_field(request.body, "outcome", "report");
      return ok_line(request, entry.session->report(ticket, outcome));
    }
    if (request.op == "status") {
      ADML_SPAN("service.status");
      return ok_line(request, entry.session->status());
    }
    // close-session: final status, then drop the session. The journal is
    // complete (every append was fsynced), so closing is purely a registry
    // operation; a later create-session pointing at the same journal
    // resumes by replay.
    ADML_SPAN("service.close_session");
    JsonObject fields = entry.session->status();
    const std::string journal = entry.session->journal_path();
    entry.session.reset();
    entry.closed = true;
    forget_session(request.session, journal);
    fields.emplace("closed", JsonValue(true));
    return ok_line(request, std::move(fields));
  } catch (const ServiceError& e) {
    return format_error(request, e.code(), e.what());
  } catch (const std::exception& e) {
    return format_error(request, errc::kInternal, e.what());
  }
}

void SessionManager::forget_session(const std::string& id,
                                    const std::string& journal) {
  util::MutexLock lock(mu_);
  sessions_.erase(id);
  if (!journal.empty()) {
    auto it = journal_owners_.find(journal);
    if (it != journal_owners_.end() && it->second == id)
      journal_owners_.erase(it);
  }
  ADML_GAUGE_SET("service.sessions_active",
                 static_cast<double>(sessions_.size()));
}

}  // namespace autodml::service
