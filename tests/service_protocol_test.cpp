// Protocol conformance for the tuning service: every malformed frame,
// unknown id, out-of-contract op, and admission-control rejection must
// come back as a typed {"ok":false,"error":CODE} response — never an
// uncaught exception, never a crash — and a seeded fuzz loop over mutated
// frames holds the same invariant. Also pins the space/config JSON
// round-trip the wire format depends on.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "service/error.h"
#include "service/session_manager.h"
#include "service/space_json.h"
#include "synthetic_objective.h"
#include "util/json.h"
#include "util/rng.h"

namespace autodml::service {
namespace {

using testing::SyntheticObjective;
using util::JsonValue;

constexpr const char* kSpace =
    R"({"params":[{"name":"x","kind":"continuous","lo":0,"hi":1},)"
    R"({"name":"mode","kind":"categorical","categories":["a","b"]},)"
    R"({"name":"k","kind":"int","lo":1,"hi":10},)"
    R"({"name":"dud","kind":"continuous","lo":0,"hi":1}]})";

constexpr const char* kCheapOptions =
    R"("options":{"max_evaluations":4,"initial_design_size":2,)"
    R"("gp_restarts":1,"gp_adam_iterations":10,"acq_random_candidates":32,)"
    R"("early_term":false})";

std::string create_line(const std::string& id,
                        const std::string& extra = "") {
  return R"({"op":"create-session","session":")" + id + R"(","seed":3,)" +
         extra + kCheapOptions + R"(,"space":)" + kSpace + "}";
}

std::string ok_outcome(double objective) {
  return R"({"feasible":true,"aborted":false,"failure":"",)"
         R"("objective":)" +
         std::to_string(objective) +
         R"(,"spent_seconds":1.0,"usd_per_hour":1.0})";
}

/// Sends one frame and parses the response (which must always be JSON).
JsonValue call(SessionManager& manager, const std::string& line) {
  const std::string response = manager.handle_line(line);
  JsonValue value(nullptr);
  EXPECT_NO_THROW(value = util::parse_json(response))
      << "non-JSON response: " << response;
  EXPECT_TRUE(value.is_object()) << response;
  EXPECT_TRUE(value.contains("ok")) << response;
  return value;
}

void expect_error(SessionManager& manager, const std::string& line,
                  const std::string& code) {
  const JsonValue response = call(manager, line);
  EXPECT_FALSE(response.at("ok").as_bool()) << line;
  ASSERT_TRUE(response.contains("error")) << line;
  EXPECT_EQ(response.at("error").as_string(), code)
      << line << " -> " << response.at("detail").as_string();
}

JsonValue expect_ok(SessionManager& manager, const std::string& line) {
  const JsonValue response = call(manager, line);
  EXPECT_TRUE(response.at("ok").as_bool())
      << line << " -> " << util::dump_json(response);
  return response;
}

// ---- frame-level errors ----------------------------------------------------

TEST(ServiceProtocol, MalformedFramesAreTypedBadFrame) {
  SessionManager manager;
  expect_error(manager, "not json at all", errc::kBadFrame);
  expect_error(manager, R"({"op":"ping")", errc::kBadFrame);  // truncated
  expect_error(manager, R"([1,2,3])", errc::kBadFrame);  // non-object
  expect_error(manager, R"("ping")", errc::kBadFrame);
  expect_error(manager, R"({"op":"ping",})", errc::kBadFrame);
}

TEST(ServiceProtocol, MissingOrIllTypedFieldsAreBadRequest) {
  SessionManager manager;
  expect_error(manager, R"({"id":7})", errc::kBadRequest);  // no op
  expect_error(manager, R"({"op":42})", errc::kBadRequest);
  expect_error(manager, R"({"op":"status","session":9})", errc::kBadRequest);
  expect_error(manager, R"({"op":"status"})", errc::kBadRequest);  // no id
}

TEST(ServiceProtocol, UnknownOpIsTyped) {
  SessionManager manager;
  expect_error(manager, R"({"op":"restart-universe"})", errc::kUnknownOp);
}

TEST(ServiceProtocol, RequestIdIsEchoedOnSuccessAndError) {
  SessionManager manager;
  JsonValue ok = expect_ok(manager, R"({"op":"ping","id":"abc-1"})");
  EXPECT_EQ(ok.at("id").as_string(), "abc-1");
  JsonValue err = call(manager, R"({"op":"nope","id":17})");
  EXPECT_FALSE(err.at("ok").as_bool());
  EXPECT_EQ(err.at("id").as_number(), 17.0);
}

// ---- session-level errors --------------------------------------------------

TEST(ServiceProtocol, OpsAgainstUnknownSessionAreTyped) {
  SessionManager manager;
  for (const char* op : {"suggest", "report", "status", "close-session"}) {
    expect_error(manager,
                 std::string(R"({"op":")") + op + R"(","session":"ghost"})",
                 errc::kUnknownSession);
  }
}

TEST(ServiceProtocol, CreateRejectsBadSpacesLoudly) {
  SessionManager manager;
  expect_error(manager, R"({"op":"create-session","session":"a"})",
               errc::kBadRequest);  // no space at all
  expect_error(manager,
               R"({"op":"create-session","session":"a","space":{}})",
               errc::kInvalidSpace);
  expect_error(
      manager,
      R"({"op":"create-session","session":"a","space":{"params":[]}})",
      errc::kInvalidSpace);
  expect_error(manager,
               R"({"op":"create-session","session":"a","space":{"params":)"
               R"([{"name":"x","kind":"warp-field"}]}})",
               errc::kInvalidSpace);
  // Inverted bounds are caught by the ParamSpec factories.
  expect_error(manager,
               R"({"op":"create-session","session":"a","space":{"params":)"
               R"([{"name":"x","kind":"continuous","lo":2,"hi":1}]}})",
               errc::kInvalidSpace);
  // A failed create must not leak a registration: the id stays available.
  expect_ok(manager, create_line("a"));
}

TEST(ServiceProtocol, CreateRejectsUnknownOptionKeysAndDuplicateIds) {
  SessionManager manager;
  expect_error(manager,
               R"({"op":"create-session","session":"b","options":)"
               R"({"max_evals":9},"space":)" +
                   std::string(kSpace) + "}",
               errc::kBadRequest);  // typo'd key, rejected loudly
  expect_ok(manager, create_line("b"));
  expect_error(manager, create_line("b"), errc::kSessionExists);
}

TEST(ServiceProtocol, ReportForNeverSuggestedTicketIsUnknownTicket) {
  SessionManager manager;
  expect_ok(manager, create_line("s"));
  expect_error(manager,
               R"({"op":"report","session":"s","ticket":0,"outcome":)" +
                   ok_outcome(5.0) + "}",
               errc::kUnknownTicket);
  expect_ok(manager, R"({"op":"suggest","session":"s"})");
  expect_error(manager,
               R"({"op":"report","session":"s","ticket":12,"outcome":)" +
                   ok_outcome(5.0) + "}",
               errc::kUnknownTicket);
  expect_ok(manager,
            R"({"op":"report","session":"s","ticket":0,"outcome":)" +
                ok_outcome(5.0) + "}");
  // A second report for the same ticket is the classic double-tell.
  expect_error(manager,
               R"({"op":"report","session":"s","ticket":0,"outcome":)" +
                   ok_outcome(5.0) + "}",
               errc::kUnknownTicket);
}

TEST(ServiceProtocol, InvalidOutcomesAreRejectedBeforeMutation) {
  SessionManager manager;
  expect_ok(manager, create_line("s"));
  expect_ok(manager, R"({"op":"suggest","session":"s"})");
  const std::string prefix = R"({"op":"report","session":"s","ticket":0,)";
  expect_error(manager, prefix + R"("outcome":42})", errc::kInvalidOutcome);
  expect_error(manager, prefix + R"("outcome":{"feasible":true}})",
               errc::kInvalidOutcome);
  expect_error(manager,
               prefix +
                   R"("outcome":{"feasible":true,"aborted":false,)"
                   R"("failure":"","objective":1,"spent_seconds":-3,)"
                   R"("usd_per_hour":1}})",
               errc::kInvalidOutcome);
  // An attempt count past INT_MAX used to narrow to INT_MIN in the journal,
  // a record no later create-session could replay.
  for (const char* attempts : {"1e300", "2147483648"}) {
    expect_error(manager,
                 prefix +
                     R"("outcome":{"feasible":false,"aborted":false,)"
                     R"("failure":"OOM","objective":null,"spent_seconds":1,)"
                     R"("usd_per_hour":1,"attempts":)" +
                     attempts + "}}",
                 errc::kInvalidOutcome);
  }
  expect_error(manager, prefix.substr(0, prefix.size() - 1) + "}",
               errc::kBadRequest);  // no outcome at all
  // The rejected reports must not have consumed the ticket.
  expect_ok(manager,
            R"({"op":"report","session":"s","ticket":0,"outcome":)" +
                ok_outcome(4.0) + "}");
}

TEST(ServiceProtocol, TicketOutsideInt64RangeIsBadRequest) {
  // 1e300 is integral as a double, but no int64_t holds it.
  SessionManager manager;
  expect_ok(manager, create_line("s"));
  expect_ok(manager, R"({"op":"suggest","session":"s"})");
  for (const char* ticket : {"1e300", "-1e300", "9223372036854775808"}) {
    expect_error(manager,
                 std::string(R"({"op":"report","session":"s","ticket":)") +
                     ticket + R"(,"outcome":)" + ok_outcome(5.0) + "}",
                 errc::kBadRequest);
  }
  // The session is untouched: ticket 0 is still outstanding.
  expect_ok(manager,
            R"({"op":"report","session":"s","ticket":0,"outcome":)" +
                ok_outcome(5.0) + "}");
}

TEST(ServiceProtocol, IntOptionAboveIntMaxIsBadRequest) {
  // 2^32 + 1 used to narrow to 1: a session with a budget of one trial.
  SessionManager manager;
  for (const char* key : {"max_evaluations", "max_pending", "gp_restarts"}) {
    expect_error(manager,
                 std::string(R"({"op":"create-session","session":"s",)") +
                     R"("options":{")" + key + R"(":4294967297},"space":)" +
                     kSpace + "}",
                 errc::kBadRequest);
  }
  // No session was registered by the rejected creates.
  expect_ok(manager, create_line("s"));
}

TEST(ServiceProtocol, CompletedOutcomeWithoutObjectiveIsRejected) {
  // Regression: a feasible, non-aborted report with a null objective was
  // accepted and journaled with an unparseable objective, so a later
  // create-session on that journal failed on a corrupt record. It is an
  // invalid outcome; the session and its journal stay untouched.
  const std::string journal =
      ::testing::TempDir() + "/service_null_objective.journal";
  std::remove(journal.c_str());
  const std::string extra = R"("journal":")" + journal + R"(",)";
  const auto report = [](int ticket, const std::string& outcome) {
    return R"({"op":"report","session":"s","ticket":)" +
           std::to_string(ticket) + R"(,"outcome":)" + outcome + "}";
  };
  {
    SessionManager manager;
    expect_ok(manager, create_line("s", extra));
    expect_ok(manager, R"({"op":"suggest","session":"s"})");
    expect_error(manager,
                 report(0, R"({"feasible":true,"aborted":false,"failure":"",)"
                           R"("objective":null,"spent_seconds":1,)"
                           R"("usd_per_hour":1})"),
                 errc::kInvalidOutcome);
    const JsonValue status =
        expect_ok(manager, R"({"op":"status","session":"s"})");
    EXPECT_EQ(status.at("trials").as_number(), 0.0);
    EXPECT_EQ(status.at("pending").as_number(), 1.0);
    expect_ok(manager, report(0, ok_outcome(4.0)));
    expect_ok(manager, R"({"op":"suggest","session":"s"})");
    expect_ok(manager, report(1, ok_outcome(3.0)));
    expect_ok(manager, R"({"op":"close-session","session":"s"})");
  }
  SessionManager manager;
  const JsonValue resumed = expect_ok(manager, create_line("s", extra));
  EXPECT_EQ(resumed.at("replayed").as_number(), 2.0);
  std::remove(journal.c_str());
}

TEST(ServiceProtocol, DoubleCloseSessionIsTyped) {
  SessionManager manager;
  expect_ok(manager, create_line("s"));
  JsonValue closed = expect_ok(manager,
                               R"({"op":"close-session","session":"s"})");
  EXPECT_TRUE(closed.at("closed").as_bool());
  // The registry entry is gone, so the second close reports unknown.
  expect_error(manager, R"({"op":"close-session","session":"s"})",
               errc::kUnknownSession);
  EXPECT_EQ(expect_ok(manager, R"({"op":"stats"})")
                .at("sessions_active")
                .as_number(),
            0.0);
}

TEST(ServiceProtocol, SuggestPastMaxPendingIsTyped) {
  SessionManager manager;
  expect_ok(manager,
            R"({"op":"create-session","session":"s","seed":3,)"
            R"("options":{"max_evaluations":8,"initial_design_size":2,)"
            R"("max_pending":2,"gp_restarts":1,"gp_adam_iterations":10,)"
            R"("acq_random_candidates":32,"early_term":false},"space":)" +
                std::string(kSpace) + "}");
  expect_ok(manager, R"({"op":"suggest","session":"s"})");
  expect_ok(manager, R"({"op":"suggest","session":"s"})");
  expect_error(manager, R"({"op":"suggest","session":"s"})",
               errc::kTooManyPending);
}

TEST(ServiceProtocol, SuggestPastBudgetIsTyped) {
  SessionManager manager;
  expect_ok(manager,
            R"({"op":"create-session","session":"s","seed":3,)"
            R"("options":{"max_evaluations":2,"initial_design_size":2,)"
            R"("gp_restarts":1,"gp_adam_iterations":10,)"
            R"("acq_random_candidates":32,"early_term":false},"space":)" +
                std::string(kSpace) + "}");
  for (int ticket = 0; ticket < 2; ++ticket) {
    expect_ok(manager, R"({"op":"suggest","session":"s"})");
    expect_ok(manager, R"({"op":"report","session":"s","ticket":)" +
                           std::to_string(ticket) +
                           R"(,"outcome":)" + ok_outcome(9.0) + "}");
  }
  JsonValue status = expect_ok(manager, R"({"op":"status","session":"s"})");
  EXPECT_TRUE(status.at("done").as_bool());
  expect_error(manager, R"({"op":"suggest","session":"s"})",
               errc::kBudgetExhausted);
}

TEST(ServiceProtocol, AdmissionControlCapsLiveSessions) {
  ServiceOptions options;
  options.max_sessions = 2;
  SessionManager manager(options);
  expect_ok(manager, create_line("a"));
  expect_ok(manager, create_line("b"));
  expect_error(manager, create_line("c"), errc::kTooManySessions);
  expect_ok(manager, R"({"op":"close-session","session":"a"})");
  expect_ok(manager, create_line("c"));  // slot freed by the close
}

TEST(ServiceProtocol, LiveSessionsCannotShareAJournal) {
  // Regression for the TrialJournal single-owner contract: two live
  // writers would interleave records and corrupt replay, so the manager's
  // journal registry must reject the second create — and release the path
  // when the owner closes.
  const std::string journal =
      ::testing::TempDir() + "/service_shared.journal";
  std::remove(journal.c_str());
  SessionManager manager;
  const std::string extra = R"("journal":")" + journal + R"(",)";
  expect_ok(manager, create_line("owner", extra));
  expect_error(manager, create_line("thief", extra), errc::kJournalInUse);
  expect_ok(manager, R"({"op":"close-session","session":"owner"})");
  expect_ok(manager, create_line("heir", extra));  // resume is legal
  std::remove(journal.c_str());
}

// ---- wire-format round trips -----------------------------------------------

TEST(ServiceProtocol, SpaceJsonRoundTripsTheSyntheticSpace) {
  const SyntheticObjective objective;
  const JsonValue encoded = space_to_json(objective.space());
  const conf::ConfigSpace decoded = space_from_json(encoded);
  ASSERT_EQ(decoded.num_params(), objective.space().num_params());
  // A second encode of the decoded space must be byte-stable.
  EXPECT_EQ(util::dump_json(space_to_json(decoded)),
            util::dump_json(encoded));
  const conf::Config config = objective.space().default_config();
  const conf::Config back =
      config_from_json(config_to_json(config), decoded);
  EXPECT_EQ(util::dump_json(config_to_json(back)),
            util::dump_json(config_to_json(config)));
}

// ---- fuzz ------------------------------------------------------------------

TEST(ServiceProtocol, FuzzedFramesNeverCrashAndAlwaysAnswerJson) {
  SessionManager manager;
  expect_ok(manager, create_line("fz"));
  const std::vector<std::string> corpus = {
      R"({"op":"ping"})",
      create_line("fz2"),
      R"({"op":"suggest","session":"fz"})",
      R"({"op":"report","session":"fz","ticket":0,"outcome":)" +
          ok_outcome(7.0) + "}",
      R"({"op":"status","session":"fz","id":[1,{"k":null}]})",
      R"({"op":"close-session","session":"fz"})",
      R"({"op":"stats"})",
  };
  util::Rng rng(20240808);
  // The alphabet includes a NUL byte; the explicit length keeps it.
  constexpr char kGarbage[] = "\"\0{}[],:truefalsenull0.5e-";
  const std::string garbage(kGarbage, sizeof(kGarbage) - 1);
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::string frame =
        corpus[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(corpus.size()) - 1))];
    const int mutations = static_cast<int>(rng.uniform_int(0, 4));
    for (int m = 0; m < mutations && !frame.empty(); ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1));
      switch (rng.uniform_int(0, 3)) {
        case 0:  // truncate
          frame.resize(pos);
          break;
        case 1:  // flip one byte to printable garbage
          frame[pos] = garbage[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(garbage.size()) - 1))];
          break;
        case 2:  // splice a chunk of another corpus entry
          frame.insert(
              pos, corpus[static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(corpus.size()) - 1))]
                       .substr(0, 13));
          break;
        default:  // delete a span
          frame.erase(pos, static_cast<std::size_t>(rng.uniform_int(1, 9)));
          break;
      }
    }
    if (frame.empty()) continue;
    // The only invariant fuzzing can assert — and the one that matters:
    // whatever arrives, the response is one well-formed JSON object with
    // an "ok" field, and the process is still here to send it.
    (void)call(manager, frame);
  }
}

}  // namespace
}  // namespace autodml::service
