// One tuning session: a BoTuner driven in ask/tell mode on behalf of a
// remote client that evaluates configurations on its own infrastructure.
//
// The session owns its ConfigSpace (parsed from the create-session
// request), a RemoteObjective stub (evaluation happens client-side, so
// run() must never be called), the tuner, and — when the client asked for
// durability — the tuner's crash-safe journal. Construction replays any
// existing journal and ingests every reported trial in it, so a daemon
// restart resumes every session before serving new traffic.
//
// Thread contract: ops are NOT internally synchronized. The SessionManager
// serializes all access per session (its actor queue executes ops under
// the session entry's mutex); a standalone session (tests, CLI loopback)
// is single-threaded by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/bo_tuner.h"
#include "util/json.h"

namespace autodml::service {

/// ObjectiveFunction stub for remote evaluation: the service never runs
/// configurations itself, so run() throws. target_metric/objective_is_cost
/// still parameterize the early-termination advice sent with suggestions.
class RemoteObjective final : public core::ObjectiveFunction {
 public:
  RemoteObjective(const conf::ConfigSpace& space, double target_metric,
                  bool objective_is_cost)
      : space_(&space),
        target_metric_(target_metric),
        objective_is_cost_(objective_is_cost) {}

  const conf::ConfigSpace& space() const override { return *space_; }
  core::RunOutcome run(const conf::Config&, core::RunController*) override;
  double target_metric() const override { return target_metric_; }
  bool objective_is_cost() const override { return objective_is_cost_; }

 private:
  const conf::ConfigSpace* space_;
  double target_metric_;
  bool objective_is_cost_;
};

/// Everything create-session configures. `options` is the full tuner
/// configuration (seed, budgets, journal path, surrogate knobs).
struct SessionConfig {
  std::string id;
  core::BoOptions options;
  double target_metric = 0.0;
  bool objective_is_cost = false;
  /// Admission control: max outstanding (suggested, unreported) tickets.
  int max_pending = 16;
};

class TuningSession {
 public:
  /// Builds the space/objective/tuner and replays any existing journal.
  /// Throws ServiceError on an invalid space or unusable journal.
  TuningSession(SessionConfig config, const util::JsonValue& space_json);

  const std::string& id() const { return id_; }
  const std::string& journal_path() const {
    return config_.options.journal_path;
  }

  // ---- ops (serialized by the owner; each returns the response body) ----

  /// Next proposal: {"ticket", "config", "allow_early_term", "incumbent"}.
  /// Throws too-many-pending past the admission limit, budget-exhausted
  /// when the tuner is done proposing.
  util::JsonObject suggest();

  /// Fold a reported outcome in: {"trials", "pending", "best_objective"}.
  /// Throws invalid-outcome / unknown-ticket; a failed report leaves the
  /// session state untouched.
  util::JsonObject report(std::int64_t ticket,
                          const util::JsonValue& outcome_json);

  /// Read-only snapshot: trials, pending, budget, incumbent, done.
  util::JsonObject status() const;

 private:
  util::JsonObject status_fields() const;

  std::string id_;
  SessionConfig config_;
  // Order matters: configs point into the space, the tuner points at the
  // objective; destruction must run tuner -> objective -> space.
  std::unique_ptr<conf::ConfigSpace> space_;
  std::unique_ptr<RemoteObjective> objective_;
  std::unique_ptr<core::BoTuner> tuner_;
  std::size_t replayed_ = 0;
};

}  // namespace autodml::service
