// The AutoDML tuner: Bayesian optimization over distributed-ML system
// configurations. This is the paper's primary contribution.
//
// Loop structure: one ask/tell core drives every trial.
//   - ask: the first initial_design_size proposals come from a
//     space-filling design (a Latin hypercube) and run to
//     completion — the model needs uncensored anchors. Later proposals fit
//     the surrogate (objective + feasibility + cost GPs) and maximize the
//     acquisition over a mixed candidate pool, conditioned on
//     kriging-believer fantasies of every outstanding proposal.
//   - tell: results are ingested strictly in proposal (FIFO) order —
//     journaled, folded into the surrogate history, recorded.
// tune() drives the core itself: at async_q == 1 it evaluates each
// proposal inline under the early-termination policy (hopeless runs are
// killed from their learning curve); deeper pipelines keep async_q
// evaluations on an AsyncEvalExecutor. The session API (ask_next/
// tell_next) hands the same core to an external driver.
// Warm-start trials (R-F9) are folded into the surrogate but are not
// charged against the budget or reported in the result's trial list.
//
// Crash safety: with `journal_path` set, every evaluated trial is appended
// to a fsynced line-delimited journal when it is ingested. A process
// killed mid-tune resumes by pointing a new tuner (same seed, same options)
// at the same journal: journaled trials are *replayed* — their asks and
// ingests re-issued in the recorded order and folded into the result, the
// budget, and the surrogate without re-evaluating, while the objective
// advances its deterministic per-run state via notify_replayed — so the
// continuation is bit-identical to an uninterrupted run.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/acquisition_optimizer.h"
#include "core/early_termination.h"
#include "core/session_io.h"
#include "core/surrogate.h"
#include "core/tuner_types.h"

namespace autodml::core {

struct BoOptions {
  int initial_design_size = 8;
  AcquisitionKind acquisition = AcquisitionKind::kLogEi;
  int max_evaluations = 30;
  double max_spent_seconds = std::numeric_limits<double>::infinity();
  /// Wall-clock deadline for tune() in *real* seconds (max_spent_seconds is
  /// simulated evaluation time). When the deadline passes, the loop stops
  /// proposing after the in-flight trial: everything finished is already in
  /// the fsynced journal, so the process can exit cleanly and a later run
  /// resumes where it stopped. TuningResult::wall_deadline_hit reports it.
  double max_wall_seconds = std::numeric_limits<double>::infinity();
  /// Test seam for the deadline watchdog: returns seconds elapsed since an
  /// arbitrary fixed origin. Defaults to a monotonic clock started when
  /// tune() begins.
  std::function<double()> wall_clock;
  double random_interleave_prob = 0.05;  // epsilon of pure exploration
  EarlyTermOptions early_term;  // target_metric is filled from the objective
  SurrogateOptions surrogate;
  AcqOptimizerOptions acq_optimizer;
  std::vector<Trial> warm_start;
  /// Append-only trial journal for crash-safe sessions (empty = disabled).
  /// An existing journal written with the same seed/space is resumed.
  std::string journal_path;
  /// Keep up to async_q evaluations in flight on a dedicated executor pool
  /// (1 = the classic synchronous loop). Proposals made while evaluations
  /// are pending are conditioned on kriging-believer fantasies of the
  /// pending points (see make_fantasy_trial); results are ingested,
  /// journaled, and folded into the surrogate strictly in proposal order,
  /// so incumbents are bit-identical and journals byte-identical at any
  /// async_workers count. Replay accepts a journal written at any async_q,
  /// but the continuation is bit-identical to the uninterrupted run only
  /// at the same async_q (like seed).
  /// Budget note: max_spent_seconds is checked at proposal time, so an
  /// async run can overshoot it by up to async_q in-flight evaluations
  /// (the synchronous loop already overshoots by one).
  int async_q = 1;
  /// Executor worker threads when async_q > 1 (0 = use async_q). Changes
  /// latency only, never results. Ignored at async_q == 1, which evaluates
  /// inline on the calling thread.
  int async_workers = 0;
  std::uint64_t seed = 1;
};

class BoTuner {
 public:
  BoTuner(ObjectiveFunction& objective, BoOptions options);
  ~BoTuner();

  /// Runs the full loop. Call once.
  TuningResult tune();

  /// Surrogate after tune(); used by the sensitivity experiment.
  const SurrogateModel& surrogate() const { return surrogate_; }

  /// Trials recovered from the journal instead of evaluated (after tune()).
  std::size_t replayed_trials() const { return replayed_; }

  // ---- ask/tell session mode (the service daemon's driving API) ----------
  //
  // Instead of tune() driving the core, an external driver alternates
  // ask_next() (get a proposal to evaluate elsewhere) and tell_next()
  // (report the outcome). The op sequence fully determines the results:
  // a serial ask->tell drive is bit-identical to tune() at async_q == 1,
  // and a k-outstanding drive matches async_q == k with the same
  // interleave. Results are ingested — journaled, folded into the
  // surrogate, recorded — in strict ticket order regardless of tell
  // arrival order, exactly like tune()'s FIFO collection. tune() and
  // session mode are mutually exclusive on one instance.

  /// One proposal handed to an external evaluator. `incumbent` snapshots
  /// the best objective at ask time so a remote early-termination policy
  /// can race the run against it.
  struct SessionAsk {
    std::int64_t ticket = 0;
    conf::Config config;
    bool allow_early_term = false;
    double incumbent = std::numeric_limits<double>::infinity();
  };

  /// Next proposal, conditioned on history plus kriging-believer fantasies
  /// of every outstanding (asked, not yet told) ticket. The first session
  /// op replays the journal (see drain_replay). Returns nullopt when the
  /// evaluation/spent budget cannot pay for another proposal.
  std::optional<SessionAsk> ask_next();

  /// Runs `ask` on the tuner's objective exactly as tune() runs its own
  /// proposals: under the early-termination policy, raced against the
  /// ask's incumbent snapshot, when the ask allows it. Thread-safe with
  /// respect to the loop state.
  Trial evaluate(const SessionAsk& ask);

  /// Reports the outcome for an outstanding ticket. The trial's config is
  /// replaced by the bit-exact proposal config (client copies go through a
  /// JSON round trip); out-of-order tells are buffered and ingested once
  /// every earlier ticket has reported. Throws std::invalid_argument for an
  /// unknown or already-told ticket.
  void tell_next(std::int64_t ticket, Trial trial);

  /// Replays every journaled trial into the session (resume-by-replay),
  /// returning how many were recovered. Any session op replays first;
  /// explicit use lets a daemon restore state before serving traffic.
  /// Throws std::invalid_argument when the journal diverges from the
  /// regenerated proposals (different options or space).
  std::size_t drain_replay();

  /// Live view of the session's result (incumbent, trials, curve).
  const TuningResult& session_result() const;

  /// Outstanding tickets: asked but not yet ingested.
  std::size_t session_pending() const;

  /// True once the budget is exhausted and every ticket has been told.
  bool session_done() const;

 private:
  struct Proposal;   // one outstanding ask (see bo_tuner.cpp)
  struct LoopState;  // the ask/tell core's state (see bo_tuner.cpp)

  /// Lazily starts the loop: draws the initial design, then replays the
  /// journal. Shared by tune() and session mode, which exclude each other:
  /// throws std::logic_error on a second tune() or on mixing the modes.
  LoopState& loop(bool for_tune);
  /// loop() for the session API; also ingests journal records left
  /// outstanding by replay, before the session serves traffic.
  LoopState& session();
  /// The budget gate: everything ingested plus everything outstanding
  /// counts against max_evaluations, so no driver proposes an evaluation
  /// the budget cannot pay for.
  bool can_propose() const;
  /// The ask half of the core: the next proposal, conditioned on the
  /// history plus kriging-believer fantasies of every outstanding one, is
  /// appended to the FIFO. Deterministic — all rng draws happen here, on
  /// the caller's thread.
  const Proposal& ask();
  /// Pops the oldest outstanding proposal and ingests `trial` for it:
  /// index stamps, metrics and journal append (live results only),
  /// surrogate history, incumbent update.
  void ingest_front(Trial trial);
  /// Ingests the FIFO front if its result is already known (told out of
  /// order, or recovered from the journal); false otherwise.
  bool ingest_told_front();
  /// Re-issues the journal's asks and ingests in their recorded order,
  /// verifying each regenerated proposal against its record. Records
  /// ingested after the last replayed ask stay outstanding with their
  /// outcomes known. Throws std::invalid_argument on divergence.
  void replay_journal();

  /// Quasi-random proposal used while the surrogate is degraded. Driven by
  /// a dedicated seed-derived Halton stream, not rng_, so fallback
  /// proposals are bit-identical across reruns and journal resumes.
  conf::Config fallback_config();

  ObjectiveFunction* objective_;
  BoOptions options_;
  util::Rng rng_;
  SurrogateModel surrogate_;
  /// The surrogate refit on history + outstanding fantasies (asks made
  /// while proposals are outstanding).
  /// Kept separate from surrogate_ so fantasy beliefs never leak into the
  /// model the sensitivity analysis (and the final fit) reads.
  SurrogateModel fantasy_model_;
  std::vector<Trial> history_;  // warm start + own trials
  std::vector<Trial> replay_;  // journaled trials, consumed by the loop start
  std::size_t replayed_ = 0;
  std::unique_ptr<TrialJournal> journal_;
  std::size_t fallback_index_ = 0;  // Halton cursor for degraded proposals
  std::unique_ptr<LoopState> loop_;  // non-null once tune() or a session began
  bool tuned_ = false;               // tune() ran (or is running)
};

}  // namespace autodml::core
