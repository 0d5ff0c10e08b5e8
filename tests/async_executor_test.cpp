// The async evaluation pipeline: AsyncEvalExecutor ordering/serialization/
// exception contracts, the BoTuner async_q determinism guarantees (byte-
// identical journals and bit-identical incumbents at any worker or
// acquisition-thread count), out-of-order journal ingestion, and mid-batch
// checkpoint/resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/async_executor.h"
#include "core/bo_tuner.h"
#include "core/session_io.h"
#include "obs/metrics.h"
#include "synthetic_objective.h"
#include "util/fs.h"
#include "util/json.h"
#include "util/string_util.h"

namespace autodml::core {
namespace {

using testing::SyntheticObjective;

BoOptions fast_options(std::uint64_t seed, int evals) {
  BoOptions options;
  options.seed = seed;
  options.max_evaluations = evals;
  options.initial_design_size = 6;
  options.surrogate.gp.restarts = 1;
  options.surrogate.gp.adam_iterations = 60;
  options.acq_optimizer.random_candidates = 256;
  return options;
}

BoOptions async_options(std::uint64_t seed, int evals, int q, int workers,
                        int acq_threads = 1) {
  BoOptions options = fast_options(seed, evals);
  options.async_q = q;
  options.async_workers = workers;
  options.acq_threads = acq_threads;
  return options;
}

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

Trial numbered_trial(int i) {
  Trial t;
  t.outcome.feasible = true;
  t.outcome.objective = static_cast<double>(i);
  return t;
}

// ---- executor contracts ----------------------------------------------------

TEST(AsyncExecutor, ResultsReturnInSubmissionOrderDespiteRacingCompletion) {
  // Later submissions finish first (earlier tasks sleep longer), yet
  // next_result() must hand results back strictly FIFO.
  AsyncEvalExecutor executor(/*workers=*/4, /*serialize_runs=*/false);
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    executor.submit([i] {
      std::this_thread::sleep_for(std::chrono::milliseconds((n - i) * 3));
      return numbered_trial(i);
    });
  }
  EXPECT_EQ(executor.in_flight(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Trial t = executor.next_result();
    EXPECT_DOUBLE_EQ(t.outcome.objective, static_cast<double>(i));
    EXPECT_EQ(executor.in_flight(), static_cast<std::size_t>(n - i - 1));
  }
}

TEST(AsyncExecutor, SerializedModeNeverOverlapsEvaluations) {
  // serialize_runs is the default for objectives with per-run deterministic
  // state: run i+1 must not start until run i finished, even with spare
  // workers. Track overlap with an entry/exit counter.
  AsyncEvalExecutor executor(/*workers=*/4, /*serialize_runs=*/true);
  std::atomic<int> running{0};
  std::atomic<int> max_running{0};
  std::atomic<int> order_violations{0};
  std::atomic<int> last_seen{-1};
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    executor.submit([&, i] {
      const int now = ++running;
      int peak = max_running.load();
      while (now > peak && !max_running.compare_exchange_weak(peak, now)) {
      }
      if (last_seen.exchange(i) != i - 1) ++order_violations;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      --running;
      return numbered_trial(i);
    });
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(executor.next_result().outcome.objective,
                     static_cast<double>(i));
  }
  EXPECT_EQ(max_running.load(), 1);
  EXPECT_EQ(order_violations.load(), 0);
}

TEST(AsyncExecutor, ThrowingTaskSurfacesAtItsTicketAndPipelineContinues) {
  // A throwing objective must not wedge the serialized start gate (the
  // ticket advances through the exception path) and must surface from
  // next_result() at exactly its own position.
  AsyncEvalExecutor executor(/*workers=*/2, /*serialize_runs=*/true);
  executor.submit([] { return numbered_trial(0); });
  executor.submit([]() -> Trial {
    throw std::runtime_error("objective exploded");
  });
  executor.submit([] { return numbered_trial(2); });
  EXPECT_DOUBLE_EQ(executor.next_result().outcome.objective, 0.0);
  EXPECT_THROW(executor.next_result(), std::runtime_error);
  EXPECT_DOUBLE_EQ(executor.next_result().outcome.objective, 2.0);
}

TEST(AsyncExecutor, NextResultWithNothingInFlightThrows) {
  AsyncEvalExecutor executor(/*workers=*/1, /*serialize_runs=*/true);
  EXPECT_THROW(executor.next_result(), std::logic_error);
}

TEST(AsyncExecutor, DestructorDrainsUncollectedSubmissions) {
  // Abandoning the pipeline mid-flight (an exception path in the tuner)
  // must not deadlock or crash: the pool drains every submitted task.
  std::atomic<int> completed{0};
  {
    AsyncEvalExecutor executor(/*workers=*/2, /*serialize_runs=*/true);
    for (int i = 0; i < 6; ++i) {
      executor.submit([&completed, i] {
        ++completed;
        return numbered_trial(i);
      });
    }
  }
  EXPECT_EQ(completed.load(), 6);
}

// ---- tuner-level determinism -----------------------------------------------

struct AsyncRun {
  TuningResult result;
  std::string journal;
};

AsyncRun run_session(const std::string& name, BoOptions options) {
  const std::string journal = temp_path(name);
  options.journal_path = journal;
  SyntheticObjective objective;
  BoTuner tuner(objective, options);
  AsyncRun out{tuner.tune(), util::read_file(journal)};
  std::remove(journal.c_str());
  return out;
}

void expect_same_trials(const TuningResult& a, const TuningResult& b) {
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_TRUE(a.trials[i].config == b.trials[i].config) << "trial " << i;
    EXPECT_DOUBLE_EQ(a.trials[i].outcome.objective,
                     b.trials[i].outcome.objective)
        << "trial " << i;
    EXPECT_DOUBLE_EQ(a.trials[i].outcome.spent_seconds,
                     b.trials[i].outcome.spent_seconds)
        << "trial " << i;
  }
  EXPECT_DOUBLE_EQ(a.best_objective, b.best_objective);
  EXPECT_TRUE(a.best_config == b.best_config);
}

TEST(AsyncTuner, ForcedDepthOnePipelineReproducesSynchronousLoop) {
  // async_workers is ignored at async_q == 1: both runs evaluate inline
  // through the same ask/tell core, so the trial sequences must match bit
  // for bit.
  SyntheticObjective sync_objective;
  BoTuner sync_tuner(sync_objective, fast_options(31, 12));
  const TuningResult sync = sync_tuner.tune();

  SyntheticObjective async_objective;
  BoTuner async_tuner(async_objective, async_options(31, 12, /*q=*/1,
                                                     /*workers=*/1));
  const TuningResult async = async_tuner.tune();

  expect_same_trials(sync, async);
  // Every path stamps proposal indices, so the sync journal is byte-
  // identical to the session and pipelined ones.
  for (std::size_t i = 0; i < sync.trials.size(); ++i) {
    EXPECT_EQ(sync.trials[i].proposal_index, static_cast<std::int64_t>(i))
        << i;
    EXPECT_EQ(async.trials[i].proposal_index, static_cast<std::int64_t>(i))
        << i;
  }
}

TEST(AsyncTuner, JournalsByteIdenticalAcrossWorkerAndAcqThreadCounts) {
  // The tentpole contract: for a fixed async_q, changing how much real
  // parallelism serves the pipeline (evaluation workers, acquisition
  // threads) must not change a single byte of the journal or a single bit
  // of the incumbent. Journals serialize doubles with %.17g, so the byte
  // comparison is a bit comparison of the whole trial sequence.
  for (const int q : {2, 4}) {
    const AsyncRun ref =
        run_session("async_det_ref.journal", async_options(41, 12, q, 1));
    ASSERT_EQ(ref.result.trials.size(), 12u);
    ASSERT_FALSE(ref.journal.empty());

    struct Variant {
      int workers;
      int acq_threads;
    };
    for (const Variant v : {Variant{q, 1}, Variant{q + 3, 1}, Variant{1, 4}}) {
      const AsyncRun got = run_session(
          "async_det_var.journal", async_options(41, 12, q, v.workers,
                                                 v.acq_threads));
      EXPECT_EQ(got.journal, ref.journal)
          << "q=" << q << " workers=" << v.workers
          << " acq_threads=" << v.acq_threads;
      expect_same_trials(ref.result, got.result);
    }
  }
}

TEST(AsyncTuner, MidBatchDeadlineCheckpointResumesToReferenceBytes) {
  // Kill the pipeline via the wall-clock watchdog with q proposals in
  // flight (satellite of the adml-chaos process-kill harness, which covers
  // the hard-kill variant): the drained journal must resume to a session
  // byte-identical to an uninterrupted reference run.
  const BoOptions base = async_options(21, 12, /*q=*/4, /*workers=*/4);
  const AsyncRun ref = run_session("async_resume_ref.journal", base);
  ASSERT_EQ(ref.result.trials.size(), 12u);

  const std::string journal = temp_path("async_resume.journal");
  {
    SyntheticObjective objective;
    BoOptions options = base;
    options.journal_path = journal;
    options.max_wall_seconds = 4.0;
    double fake_now = 0.0;
    options.wall_clock = [&fake_now] {
      fake_now += 1.0;
      return fake_now;
    };
    BoTuner tuner(objective, options);
    const TuningResult partial = tuner.tune();
    EXPECT_TRUE(partial.wall_deadline_hit);
    EXPECT_GE(partial.trials.size(), 1u);
    EXPECT_LT(partial.trials.size(), 12u);
  }

  SyntheticObjective resumed;
  BoOptions options = base;
  options.journal_path = journal;
  BoTuner tuner(resumed, options);
  const TuningResult got = tuner.tune();
  EXPECT_FALSE(got.wall_deadline_hit);
  EXPECT_GT(tuner.replayed_trials(), 0u);
  EXPECT_EQ(util::read_file(journal), ref.journal);
  expect_same_trials(ref.result, got);
  std::remove(journal.c_str());
}

// ---- out-of-order journal ingestion ----------------------------------------

std::vector<std::string> journal_lines(const std::string& contents) {
  std::vector<std::string> lines;
  for (std::string& line : util::split(contents, '\n')) {
    if (!line.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

TEST(AsyncJournal, OutOfOrderRecordsSortByProposalIndexAndResume) {
  // The schema contract: replay order is defined by the proposal_index a
  // record carries, not by its position in the file. Shuffle a journal
  // prefix on disk and the session must still resume to the reference.
  const BoOptions base = async_options(51, 10, /*q=*/4, /*workers=*/4);
  const AsyncRun ref = run_session("async_ooo_ref.journal", base);
  ASSERT_EQ(ref.result.trials.size(), 10u);

  std::vector<std::string> lines = journal_lines(ref.journal);
  ASSERT_EQ(lines.size(), 11u);  // header + 10 records
  // Keep the header, take the first 6 records, reverse them.
  std::vector<std::string> shuffled(lines.begin(), lines.begin() + 7);
  std::reverse(shuffled.begin() + 1, shuffled.end());
  const std::string journal = temp_path("async_ooo.journal");
  util::write_file_atomic(journal, join_lines(shuffled));

  const SyntheticObjective probe;
  const LoadedJournal loaded = load_journal(journal, probe.space());
  ASSERT_EQ(loaded.trials.size(), 6u);
  for (std::size_t i = 0; i < loaded.trials.size(); ++i) {
    EXPECT_EQ(loaded.trials[i].proposal_index, static_cast<std::int64_t>(i));
  }

  SyntheticObjective resumed;
  BoOptions options = base;
  options.journal_path = journal;
  BoTuner tuner(resumed, options);
  const TuningResult got = tuner.tune();
  EXPECT_EQ(tuner.replayed_trials(), 6u);
  expect_same_trials(ref.result, got);
  std::remove(journal.c_str());
}

TEST(AsyncJournal, MissingRecordIsRejectedNotSilentlyReplayed) {
  // Losing a *middle* record (truncation eats the tail legitimately; a hole
  // in the middle means the file is damaged) leaves a non-contiguous index
  // sequence; replaying around the hole would silently diverge the session,
  // so the loader must refuse.
  const BoOptions base = async_options(61, 8, /*q=*/2, /*workers=*/2);
  const AsyncRun ref = run_session("async_gap_ref.journal", base);
  std::vector<std::string> lines = journal_lines(ref.journal);
  ASSERT_EQ(lines.size(), 9u);
  lines.erase(lines.begin() + 3);  // drop the record with proposal_index 2
  const std::string journal = temp_path("async_gap.journal");
  util::write_file_atomic(journal, join_lines(lines));

  const SyntheticObjective probe;
  EXPECT_THROW(load_journal(journal, probe.space()), std::invalid_argument);
  std::remove(journal.c_str());
}

TEST(AsyncJournal, ResumesAtAnotherDepthInTheRecordedAskOrder) {
  // Replay follows each record's ingested_at_ask, not the resuming tuner's
  // async_q: a q=4 journal resumes at q=1 with every replayed trial intact,
  // and the continuation then runs at depth one.
  const std::string journal = temp_path("async_depth_change.journal");
  BoOptions options = async_options(81, 8, /*q=*/4, /*workers=*/4);
  options.journal_path = journal;
  SyntheticObjective reference;
  const TuningResult want = BoTuner(reference, options).tune();
  ASSERT_EQ(want.trials.size(), 8u);

  SyntheticObjective objective;
  options.async_q = 1;
  options.max_evaluations = 11;
  BoTuner resumed(objective, options);
  const TuningResult got = resumed.tune();
  EXPECT_EQ(resumed.replayed_trials(), 8u);
  ASSERT_EQ(got.trials.size(), 11u);
  for (std::size_t i = 0; i < want.trials.size(); ++i) {
    EXPECT_TRUE(got.trials[i].config == want.trials[i].config) << i;
    EXPECT_EQ(got.trials[i].ingested_at_ask, want.trials[i].ingested_at_ask)
        << i;
  }
  for (std::size_t i = want.trials.size(); i < got.trials.size(); ++i) {
    EXPECT_EQ(got.trials[i].ingested_at_ask, static_cast<std::int64_t>(i));
  }
  std::remove(journal.c_str());
}

// ---- observability ---------------------------------------------------------

TEST(AsyncObs, PipelineMetricsEmittedOnlyOnTheAsyncPath) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();

  // Synchronous run: no async-only keys may appear (the golden-run test
  // depends on the sync snapshot staying stable across revisions).
  registry.reset();
  registry.enable();
  {
    SyntheticObjective objective;
    BoTuner(objective, fast_options(71, 10)).tune();
  }
  registry.disable();
  const std::string sync_json =
      util::dump_json(registry.snapshot_json(), 1);
  EXPECT_EQ(sync_json.find("tuner.in_flight"), std::string::npos);
  EXPECT_EQ(sync_json.find("threadpool.eval"), std::string::npos);

  // Async run: in-flight gauges and fantasy counters must be present.
  registry.reset();
  registry.enable();
  {
    SyntheticObjective objective;
    BoTuner tuner(objective,
                  async_options(71, 10, /*q=*/4, /*workers=*/4));
    tuner.tune();
  }
  registry.disable();
  EXPECT_GE(registry.gauge("tuner.in_flight_peak").value(), 2.0);
  EXPECT_EQ(registry.gauge("tuner.in_flight").value(), 0.0);  // drained
  EXPECT_GE(registry.counter("acq.fantasized").value(), 1);
  EXPECT_GE(registry.gauge("threadpool.eval.submitted").value(), 1.0);
  registry.reset();
}

}  // namespace
}  // namespace autodml::core
