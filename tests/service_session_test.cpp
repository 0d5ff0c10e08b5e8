// The service determinism contract: a session driven over the wire is
// bit-identical to a standalone BoTuner on the same seed. A serial
// suggest/report drive must reproduce tune() at async_q == 1 (journal
// bytes and incumbent bits), a k-outstanding drive must match
// async_q == k, out-of-order reports are buffered into strict FIFO
// ingestion, and create-session against an existing journal resumes by
// replay to the same continuation — also a journal written with
// suggestions outstanding, or by an older writer; a journal from other
// options is a typed error. Also pins tune()/session mutual exclusion on
// one BoTuner.
#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bo_tuner.h"
#include "core/session_io.h"
#include "service/protocol.h"
#include "service/session_manager.h"
#include "service/space_json.h"
#include "synthetic_objective.h"
#include "util/fs.h"
#include "util/json.h"
#include "util/string_util.h"

namespace autodml::service {
namespace {

using testing::SyntheticObjective;
using util::JsonValue;

core::BoOptions reference_options(std::uint64_t seed, int evals, int q,
                                  int workers) {
  core::BoOptions options;
  options.seed = seed;
  options.max_evaluations = evals;
  options.initial_design_size = 3;
  options.surrogate.gp.restarts = 1;
  options.surrogate.gp.adam_iterations = 30;
  options.acq_optimizer.random_candidates = 64;
  // The wire drive evaluates without a RunController, so the reference
  // must not early-terminate either.
  options.early_term.enabled = false;
  options.async_q = q;
  options.async_workers = workers;
  return options;
}

/// The create-session request mirroring reference_options exactly.
std::string create_line(const std::string& id, std::uint64_t seed, int evals,
                        const std::string& journal) {
  const SyntheticObjective probe;
  std::string line = R"({"op":"create-session","session":")" + id +
                     R"(","seed":)" + std::to_string(seed) +
                     R"(,"target_metric":0.9,)";
  if (!journal.empty()) line += R"("journal":")" + journal + R"(",)";
  line += R"("options":{"max_evaluations":)" + std::to_string(evals) +
          R"(,"initial_design_size":3,"gp_restarts":1,)"
          R"("gp_adam_iterations":30,"acq_random_candidates":64,)"
          R"("early_term":false},"space":)" +
          util::dump_json(space_to_json(probe.space())) + "}";
  return line;
}

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

JsonValue call(SessionManager& manager, const std::string& line) {
  JsonValue response = util::parse_json(manager.handle_line(line));
  EXPECT_TRUE(response.is_object());
  return response;
}

JsonValue expect_ok(SessionManager& manager, const std::string& line) {
  JsonValue response = call(manager, line);
  EXPECT_TRUE(response.at("ok").as_bool())
      << line << " -> " << util::dump_json(response);
  return response;
}

/// Evaluates a suggested config client-side with the shared test double
/// (no controller: early termination is off on both sides).
std::string report_line(const std::string& id, SyntheticObjective& objective,
                        const JsonValue& suggest) {
  conf::Config config =
      config_from_json(suggest.at("config"), objective.space());
  const core::RunOutcome outcome = objective.run(config, nullptr);
  return R"({"op":"report","session":")" + id + R"(","ticket":)" +
         std::to_string(
             static_cast<std::int64_t>(suggest.at("ticket").as_number())) +
         R"(,"outcome":)" + util::dump_json(outcome_to_json(outcome)) + "}";
}

/// Drives a session keeping up to `k` suggestions outstanding (k = 1 is
/// the serial drive), reporting the oldest first — the exact interleave
/// tune() uses at async_q == k. Returns the final status response.
JsonValue drive(SessionManager& manager, const std::string& id, int k) {
  SyntheticObjective objective;
  std::deque<JsonValue> outstanding;
  bool exhausted = false;
  while (true) {
    while (!exhausted &&
           outstanding.size() < static_cast<std::size_t>(k)) {
      JsonValue response =
          call(manager, R"({"op":"suggest","session":")" + id + R"("})");
      if (!response.at("ok").as_bool()) {
        EXPECT_EQ(response.at("error").as_string(), "budget-exhausted");
        exhausted = true;
        break;
      }
      outstanding.push_back(std::move(response));
    }
    if (outstanding.empty()) break;
    expect_ok(manager, report_line(id, objective, outstanding.front()));
    outstanding.pop_front();
  }
  return expect_ok(manager, R"({"op":"status","session":")" + id + R"("})");
}

// ---- bit-identity ----------------------------------------------------------

TEST(ServiceSession, SerialDriveIsBitIdenticalToForcedAsyncTune) {
  const std::string ref_journal = temp_path("svc_ref_serial.journal");
  SyntheticObjective reference;
  core::BoOptions options = reference_options(21, 8, /*q=*/1, /*workers=*/1);
  options.journal_path = ref_journal;
  core::BoTuner tuner(reference, options);
  const core::TuningResult want = tuner.tune();

  const std::string journal = temp_path("svc_serial.journal");
  SessionManager manager;
  expect_ok(manager, create_line("s", 21, 8, journal));
  const JsonValue status = drive(manager, "s", /*k=*/1);

  EXPECT_TRUE(status.at("done").as_bool());
  EXPECT_EQ(static_cast<std::size_t>(status.at("trials").as_number()),
            want.trials.size());
  // %.17g round-trips doubles exactly, so == is a bit comparison.
  EXPECT_EQ(status.at("best_objective").as_number(), want.best_objective);
  EXPECT_EQ(util::read_file(journal), util::read_file(ref_journal));
  std::remove(ref_journal.c_str());
  std::remove(journal.c_str());
}

TEST(ServiceSession, TwoOutstandingDriveMatchesAsyncDepthTwo) {
  const std::string ref_journal = temp_path("svc_ref_q2.journal");
  SyntheticObjective reference;
  core::BoOptions options = reference_options(22, 8, /*q=*/2, /*workers=*/2);
  options.journal_path = ref_journal;
  core::BoTuner tuner(reference, options);
  const core::TuningResult want = tuner.tune();

  const std::string journal = temp_path("svc_q2.journal");
  SessionManager manager;
  expect_ok(manager, create_line("s", 22, 8, journal));
  const JsonValue status = drive(manager, "s", /*k=*/2);

  EXPECT_EQ(status.at("best_objective").as_number(), want.best_objective);
  EXPECT_EQ(util::read_file(journal), util::read_file(ref_journal));
  std::remove(ref_journal.c_str());
  std::remove(journal.c_str());
}

TEST(ServiceSession, OutOfOrderReportsBufferIntoFifoIngestion) {
  // Three suggestions outstanding, reported 2, 0, 1: ingestion (journal
  // appends, surrogate folds) must still happen in ticket order, which is
  // exactly tune() at q == 3 — so the journals must match bytewise.
  const std::string ref_journal = temp_path("svc_ref_q3.journal");
  SyntheticObjective reference;
  core::BoOptions options = reference_options(23, 3, /*q=*/3, /*workers=*/3);
  options.journal_path = ref_journal;
  core::BoTuner tuner(reference, options);
  const core::TuningResult want = tuner.tune();

  const std::string journal = temp_path("svc_q3.journal");
  SessionManager manager;
  expect_ok(manager, create_line("s", 23, 3, journal));
  SyntheticObjective objective;
  JsonValue asks[3];
  for (auto& ask : asks) {
    ask = expect_ok(manager, R"({"op":"suggest","session":"s"})");
  }
  for (const int ticket : {2, 0, 1}) {
    // Evaluation order must not matter; each outcome is a pure function
    // of its config (the test double is noise-free).
    expect_ok(manager,
              report_line("s", objective,
                          asks[static_cast<std::size_t>(ticket)]));
  }
  const JsonValue status =
      expect_ok(manager, R"({"op":"status","session":"s"})");
  EXPECT_TRUE(status.at("done").as_bool());
  EXPECT_EQ(status.at("best_objective").as_number(), want.best_objective);
  EXPECT_EQ(util::read_file(journal), util::read_file(ref_journal));

  // The journal itself is proposal-ordered despite the arrival order.
  const core::LoadedJournal loaded =
      core::load_journal(journal, reference.space());
  ASSERT_EQ(loaded.trials.size(), 3u);
  for (std::size_t i = 0; i < loaded.trials.size(); ++i) {
    EXPECT_EQ(loaded.trials[i].proposal_index,
              static_cast<std::int64_t>(i));
  }
  std::remove(ref_journal.c_str());
  std::remove(journal.c_str());
}

TEST(ServiceSession, CreateAgainstExistingJournalResumesByReplay) {
  const std::string ref_journal = temp_path("svc_ref_resume.journal");
  SyntheticObjective reference;
  core::BoOptions options = reference_options(24, 8, /*q=*/1, /*workers=*/1);
  options.journal_path = ref_journal;
  core::BoTuner tuner(reference, options);
  const core::TuningResult want = tuner.tune();

  const std::string journal = temp_path("svc_resume.journal");
  SessionManager manager;
  expect_ok(manager, create_line("first", 24, 8, journal));
  SyntheticObjective objective;
  for (int i = 0; i < 4; ++i) {
    const JsonValue ask =
        expect_ok(manager, R"({"op":"suggest","session":"first"})");
    expect_ok(manager, report_line("first", objective, ask));
  }
  expect_ok(manager, R"({"op":"close-session","session":"first"})");

  // Same seed/options/journal under a fresh id: the four journaled trials
  // replay into the surrogate before any new suggestion is served.
  const JsonValue created =
      expect_ok(manager, create_line("second", 24, 8, journal));
  EXPECT_EQ(created.at("replayed").as_number(), 4.0);
  EXPECT_EQ(created.at("trials").as_number(), 4.0);
  const JsonValue status = drive(manager, "second", /*k=*/1);
  EXPECT_TRUE(status.at("done").as_bool());
  EXPECT_EQ(status.at("best_objective").as_number(), want.best_objective);
  EXPECT_EQ(util::read_file(journal), util::read_file(ref_journal));
  std::remove(ref_journal.c_str());
  std::remove(journal.c_str());
}

// ---- resume after a burst, legacy journals, mismatched journals ------------

/// Drives `id` with up to four suggestions outstanding, reporting the oldest
/// first, and stops after `reports` reports with the rest still outstanding.
void drive_burst_prefix(SessionManager& manager, const std::string& id,
                        int reports) {
  SyntheticObjective objective;
  std::deque<JsonValue> outstanding;
  for (int told = 0; told < reports;) {
    while (outstanding.size() < 4u) {
      outstanding.push_back(
          expect_ok(manager, R"({"op":"suggest","session":")" + id + R"("})"));
    }
    expect_ok(manager, report_line(id, objective, outstanding.front()));
    outstanding.pop_front();
    ++told;
  }
}

TEST(ServiceSession, JournalWrittenWithSuggestionsOutstandingResumes) {
  const std::string journal = temp_path("svc_burst_resume.journal");
  {
    SessionManager manager;
    expect_ok(manager, create_line("burst", 26, 20, journal));
    drive_burst_prefix(manager, "burst", 12);
  }  // daemon gone with four suggestions outstanding

  SessionManager manager;
  const JsonValue created =
      expect_ok(manager, create_line("burst", 26, 20, journal));
  EXPECT_EQ(created.at("replayed").as_number(), 12.0);
  EXPECT_EQ(created.at("trials").as_number(), 12.0);
  EXPECT_EQ(created.at("pending").as_number(), 0.0);
  const JsonValue status = drive(manager, "burst", /*k=*/4);
  EXPECT_TRUE(status.at("done").as_bool());
  EXPECT_EQ(status.at("trials").as_number(), 20.0);
  std::remove(journal.c_str());
}

TEST(ServiceSession, TunerReplaysAJournalWrittenFourDeep) {
  const std::string journal = temp_path("tuner_burst_resume.journal");
  core::BoOptions options = reference_options(27, 20, /*q=*/1, /*workers=*/0);
  options.journal_path = journal;
  {
    SyntheticObjective objective;
    core::BoTuner tuner(objective, options);
    std::deque<core::BoTuner::SessionAsk> outstanding;
    for (int told = 0; told < 12; ++told) {
      while (outstanding.size() < 4u) outstanding.push_back(*tuner.ask_next());
      core::Trial trial;
      trial.outcome = objective.run(outstanding.front().config, nullptr);
      tuner.tell_next(outstanding.front().ticket, std::move(trial));
      outstanding.pop_front();
    }
  }
  SyntheticObjective objective;
  core::BoTuner resumed(objective, options);
  EXPECT_EQ(resumed.drain_replay(), 12u);
  EXPECT_EQ(resumed.session_result().trials.size(), 12u);
  EXPECT_EQ(resumed.session_pending(), 0u);
  std::remove(journal.c_str());
}

TEST(ServiceSession, JournalFromDifferentOptionsIsATypedError) {
  const std::string journal = temp_path("svc_mismatch.journal");
  {
    SessionManager manager;
    expect_ok(manager, create_line("s", 28, 8, journal));
    drive_burst_prefix(manager, "s", 4);
  }
  std::string line = create_line("s", 28, 8, journal);
  const std::string design = R"("initial_design_size":3)";
  line.replace(line.find(design), design.size(),
               R"("initial_design_size":5)");
  SessionManager manager;
  const JsonValue response = call(manager, line);
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("error").as_string(), "invalid-space");
  std::remove(journal.c_str());
}

/// Rewrites `journal` as a journal of an older writer: its first `keep`
/// records with `fields` removed.
void make_legacy(const std::string& journal, std::size_t keep,
                 const std::vector<std::string>& fields) {
  std::string out;
  std::size_t line_no = 0;
  for (const std::string& line : util::split(util::read_file(journal), '\n')) {
    if (line.empty() || line_no++ > keep) continue;
    JsonValue record = util::parse_json(line);
    for (const std::string& field : fields) record.as_object().erase(field);
    out += util::dump_json(record) + "\n";
  }
  util::write_file_atomic(journal, out);
}

void expect_same_trials(const std::vector<core::Trial>& want,
                        const std::vector<core::Trial>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(want[i].config == got[i].config) << "trial " << i;
    EXPECT_EQ(want[i].outcome.objective, got[i].outcome.objective) << i;
  }
}

TEST(ServiceSession, LegacyJournalsWithoutAskOrderResumeToTheReference) {
  // Journals written before ingested_at_ask existed: the synchronous loop
  // (no proposal_index either), the async pipeline at q = 4, and a serial
  // service session. Each resumes from a 5-record prefix to its reference.
  for (const int q : {1, 4}) {
    SCOPED_TRACE("tune() at async_q=" + std::to_string(q));
    const std::string journal = temp_path("legacy_tune.journal");
    core::BoOptions options = reference_options(29, 10, q, /*workers=*/0);
    options.journal_path = journal;
    SyntheticObjective reference;
    const core::TuningResult want =
        core::BoTuner(reference, options).tune();
    make_legacy(journal, 5,
                q == 1 ? std::vector<std::string>{"ingested_at_ask",
                                                  "proposal_index"}
                       : std::vector<std::string>{"ingested_at_ask"});
    SyntheticObjective objective;
    core::BoTuner resumed(objective, options);
    const core::TuningResult got = resumed.tune();
    EXPECT_EQ(resumed.replayed_trials(), 5u);
    expect_same_trials(want.trials, got.trials);
    EXPECT_EQ(got.best_objective, want.best_objective);
    std::remove(journal.c_str());
  }

  SCOPED_TRACE("serial service session");
  const std::string journal = temp_path("legacy_session.journal");
  double want_best = 0.0;
  {
    SessionManager manager;
    expect_ok(manager, create_line("s", 30, 10, journal));
    want_best = drive(manager, "s", /*k=*/1).at("best_objective").as_number();
  }
  const SyntheticObjective probe;
  const core::LoadedJournal want = core::load_journal(journal, probe.space());
  make_legacy(journal, 5, {"ingested_at_ask"});
  SessionManager manager;
  EXPECT_EQ(
      expect_ok(manager, create_line("s", 30, 10, journal)).at("replayed")
          .as_number(),
      5.0);
  const JsonValue status = drive(manager, "s", /*k=*/1);
  expect_same_trials(want.trials,
                     core::load_journal(journal, probe.space()).trials);
  EXPECT_EQ(status.at("best_objective").as_number(), want_best);
  std::remove(journal.c_str());
}

// ---- mode exclusion --------------------------------------------------------

TEST(ServiceSession, TuneAndAskTellAreMutuallyExclusive) {
  SyntheticObjective first;
  core::BoTuner session_mode(first,
                             reference_options(25, 4, /*q=*/1, /*workers=*/1));
  ASSERT_TRUE(session_mode.ask_next().has_value());
  EXPECT_THROW(session_mode.tune(), std::logic_error);

  SyntheticObjective second;
  core::BoTuner tune_mode(second,
                          reference_options(25, 4, /*q=*/1, /*workers=*/1));
  tune_mode.tune();
  EXPECT_THROW(tune_mode.ask_next(), std::logic_error);
}

}  // namespace
}  // namespace autodml::service
