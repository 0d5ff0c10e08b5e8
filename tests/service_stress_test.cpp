// Concurrency stress for the session shard: many independent sessions
// driven over the loopback transport by parallel client threads, every
// one of which must land byte-identical to its single-session standalone
// reference. Exercises the actor-per-session serialization, the shared
// worker pool, admission bookkeeping, and journal isolation under real
// thread interleavings — the test the TSan CI leg cares about.
//
// Scale: 1000 sessions by default (the ISSUE 10 acceptance bar), reduced
// under TSan where every op costs ~10x. Sessions cycle through a handful
// of seeds so each journal can be byte-compared against one of a handful
// of standalone reference journals instead of a thousand.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/bo_tuner.h"
#include "service/protocol.h"
#include "service/session_manager.h"
#include "service/space_json.h"
#include "util/fs.h"
#include "util/json.h"

#if defined(__SANITIZE_THREAD__)
#define ADML_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ADML_TSAN_BUILD 1
#endif
#endif

namespace autodml::service {
namespace {

using util::JsonValue;

#if defined(ADML_TSAN_BUILD)
constexpr int kSessions = 200;
#else
constexpr int kSessions = 1000;
#endif
constexpr int kClientThreads = 8;
constexpr int kEvals = 4;
constexpr std::uint64_t kSeeds[] = {31, 32, 33, 34, 35, 36, 37, 38};
constexpr std::size_t kNumSeeds = sizeof(kSeeds) / sizeof(kSeeds[0]);

/// Tiny two-knob objective: cheap enough for a thousand sessions, curved
/// enough that the incumbent depends on the GP actually proposing.
double objective_value(double x, std::int64_t k) {
  return 3.0 + 25.0 * (x - 0.37) * (x - 0.37) +
         0.7 * static_cast<double>(k > 5 ? k - 5 : 5 - k);
}

class StressObjective final : public core::ObjectiveFunction {
 public:
  StressObjective() {
    space_.add(conf::ParamSpec::continuous("x", 0.0, 1.0));
    space_.add(conf::ParamSpec::integer("k", 1, 8));
  }
  const conf::ConfigSpace& space() const override { return space_; }
  double target_metric() const override { return 0.9; }
  core::RunOutcome run(const conf::Config& config,
                       core::RunController*) override {
    core::RunOutcome out;
    out.feasible = true;
    out.objective = objective_value(config.get_double("x"),
                                    config.get_int("k"));
    out.spent_seconds = 1.0;
    out.usd_per_hour = 1.0;
    return out;
  }

 private:
  conf::ConfigSpace space_;
};

core::BoOptions stress_options(std::uint64_t seed) {
  core::BoOptions options;
  options.seed = seed;
  options.max_evaluations = kEvals;
  options.initial_design_size = 2;
  options.surrogate.gp.restarts = 1;
  options.surrogate.gp.adam_iterations = 12;
  options.acq_optimizer.random_candidates = 32;
  options.early_term.enabled = false;
  options.async_q = 1;
  options.async_workers = 1;  // forced-async depth one = the session drive
  return options;
}

std::string session_id(int i) { return "s" + std::to_string(i); }

std::string journal_path(int i) {
  return ::testing::TempDir() + "/svc_stress_" + std::to_string(i) +
         ".journal";
}

std::string create_line(int i) {
  const StressObjective probe;
  return R"({"op":"create-session","session":")" + session_id(i) +
         R"(","seed":)" + std::to_string(kSeeds[i % kNumSeeds]) +
         R"(,"target_metric":0.9,"journal":")" + journal_path(i) +
         R"(","options":{"max_evaluations":)" + std::to_string(kEvals) +
         R"(,"initial_design_size":2,"gp_restarts":1,)"
         R"("gp_adam_iterations":12,"acq_random_candidates":32,)"
         R"("early_term":false},"space":)" +
         util::dump_json(space_to_json(probe.space())) + "}";
}

TEST(ServiceStress, ThousandConcurrentSessionsMatchStandaloneReferences) {
  // Standalone references: one forced-async tune per distinct seed.
  std::string reference_journal[kNumSeeds];
  double reference_best[kNumSeeds];
  for (std::size_t s = 0; s < kNumSeeds; ++s) {
    const std::string path =
        ::testing::TempDir() + "/svc_stress_ref_" + std::to_string(s) +
        ".journal";
    std::remove(path.c_str());
    StressObjective objective;
    core::BoOptions options = stress_options(kSeeds[s]);
    options.journal_path = path;
    core::BoTuner tuner(objective, options);
    reference_best[s] = tuner.tune().best_objective;
    reference_journal[s] = util::read_file(path);
    std::remove(path.c_str());
  }

  ServiceOptions service_options;
  service_options.workers = 4;
  service_options.max_sessions = kSessions + 8;
  SessionManager manager(service_options);

  // Each client thread owns a disjoint slice of sessions and drives every
  // one serially (suggest -> evaluate -> report); concurrency happens
  // *across* sessions, which is the service's parallelism model. Failures
  // are flagged atomically and asserted on the main thread — gtest
  // EXPECT from worker threads is not thread-safe everywhere.
  std::atomic<int> mismatches{0};
  std::atomic<int> protocol_errors{0};
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([t, &manager, &mismatches, &protocol_errors,
                          &reference_best] {
      StressObjective objective;
      for (int i = t; i < kSessions; i += kClientThreads) {
        std::remove(journal_path(i).c_str());
        const JsonValue created =
            util::parse_json(manager.handle_line(create_line(i)));
        if (!created.at("ok").as_bool()) {
          ++protocol_errors;
          continue;
        }
        const std::string id = session_id(i);
        while (true) {
          const JsonValue ask = util::parse_json(manager.handle_line(
              R"({"op":"suggest","session":")" + id + R"("})"));
          if (!ask.at("ok").as_bool()) {
            if (ask.at("error").as_string() != "budget-exhausted")
              ++protocol_errors;
            break;
          }
          conf::Config config =
              config_from_json(ask.at("config"), objective.space());
          const core::RunOutcome outcome = objective.run(config, nullptr);
          const JsonValue told = util::parse_json(manager.handle_line(
              R"({"op":"report","session":")" + id + R"(","ticket":)" +
              std::to_string(static_cast<std::int64_t>(
                  ask.at("ticket").as_number())) +
              R"(,"outcome":)" + util::dump_json(outcome_to_json(outcome)) +
              "}"));
          if (!told.at("ok").as_bool()) ++protocol_errors;
        }
        const JsonValue closed = util::parse_json(manager.handle_line(
            R"({"op":"close-session","session":")" + id + R"("})"));
        if (!closed.at("ok").as_bool()) {
          ++protocol_errors;
          continue;
        }
        if (closed.at("best_objective").as_number() !=
            reference_best[i % kNumSeeds]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(protocol_errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0) << "incumbent diverged from reference";

  // Every journal must be byte-identical to its seed's standalone
  // reference — the strongest form of the determinism contract.
  int journal_mismatches = 0;
  for (int i = 0; i < kSessions; ++i) {
    if (util::read_file(journal_path(i)) !=
        reference_journal[i % kNumSeeds]) {
      ++journal_mismatches;
    }
    std::remove(journal_path(i).c_str());
  }
  EXPECT_EQ(journal_mismatches, 0);

  const JsonValue stats =
      util::parse_json(manager.handle_line(R"({"op":"stats"})"));
  EXPECT_EQ(stats.at("sessions_created").as_number(),
            static_cast<double>(kSessions));
  EXPECT_EQ(stats.at("sessions_active").as_number(), 0.0);
}

}  // namespace
}  // namespace autodml::service
