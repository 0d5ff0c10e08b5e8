#include "core/bo_tuner.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>

#include "analysis/space_lint.h"
#include "config/sampler.h"
#include "core/async_executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fs.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace autodml::core {

BoTuner::BoTuner(ObjectiveFunction& objective, BoOptions options)
    : objective_(&objective),
      options_(std::move(options)),
      rng_(options_.seed),
      surrogate_(objective.space(), options_.surrogate,
                 util::Rng(options_.seed).split().next_u64(),
                 reads_cost(options_.acquisition)),
      fantasy_model_(objective.space(), options_.surrogate,
                     util::Rng(options_.seed ^ 0x517cc1b727220a95ULL)
                         .split()
                         .next_u64(),
                     reads_cost(options_.acquisition)) {
  if (options_.async_q < 1) {
    throw std::invalid_argument("BoTuner: async_q must be >= 1 (got " +
                                std::to_string(options_.async_q) + ")");
  }
  if (options_.async_workers < 0) {
    throw std::invalid_argument("BoTuner: async_workers must be >= 0 (got " +
                                std::to_string(options_.async_workers) + ")");
  }
  // Lint before any budget is spent: one evaluation is expensive, and a
  // broken space (dead conditional, log range crossing zero, ...) would
  // silently waste the whole run. Errors are fatal; warnings are logged.
  const analysis::LintReport report =
      analysis::SpaceLinter().lint(objective.space());
  for (const auto& d : report.diagnostics) {
    if (d.severity == analysis::Severity::kWarning) {
      ADML_WARN << "config-space lint: " << d.to_string();
    }
  }
  analysis::throw_if_errors(report, "BoTuner");
  for (const Trial& t : options_.warm_start) {
    if (t.config.size() != objective.space().num_params()) {
      throw std::invalid_argument(
          "BoTuner: warm-start trial carries " +
          std::to_string(t.config.size()) + " values but the space has " +
          std::to_string(objective.space().num_params()) +
          " parameters (stale session file?)");
    }
  }
  options_.early_term.target_metric = objective.target_metric();
  options_.early_term.objective_is_cost = objective.objective_is_cost();
  history_ = options_.warm_start;

  if (!options_.journal_path.empty()) {
    LoadedJournal loaded = load_journal(options_.journal_path,
                                        objective.space());
    if (!loaded.trials.empty() || loaded.header.num_params != 0) {
      if (loaded.header.seed != options_.seed) {
        throw std::invalid_argument(
            "BoTuner: journal " + options_.journal_path +
            " was written with seed " + std::to_string(loaded.header.seed) +
            " but this tuner is configured with seed " +
            std::to_string(options_.seed) +
            " (resume requires identical options)");
      }
      if (loaded.header.num_params != objective.space().num_params()) {
        throw std::invalid_argument(
            "BoTuner: journal " + options_.journal_path + " covers " +
            std::to_string(loaded.header.num_params) +
            " parameters but the space has " +
            std::to_string(objective.space().num_params()) +
            " (stale journal?)");
      }
      if (loaded.torn_tail) {
        ADML_WARN << "journal " << options_.journal_path
                  << ": torn final record skipped (crash mid-append); the "
                     "trial will be re-evaluated";
      }
      if (loaded.deduped_tail) {
        ADML_WARN << "journal " << options_.journal_path
                  << ": duplicated trailing record dropped (crash between "
                     "append and acknowledgement)";
      }
      if (loaded.torn_tail || loaded.deduped_tail) {
        // Drop the partial/duplicate record from disk before appending
        // resumes, or the next append would land after the bad line.
        std::string repaired = dump_journal(loaded.header, loaded.trials);
        util::write_file_atomic(options_.journal_path, repaired);
      }
      replay_ = std::move(loaded.trials);
    }
    JournalHeader header;
    header.seed = options_.seed;
    header.num_params = objective.space().num_params();
    journal_ = std::make_unique<TrialJournal>(options_.journal_path, header);
  }
}

conf::Config BoTuner::fallback_config() {
  // Regenerate the scrambled-Halton stream from scratch on each call: the
  // scramble permutations are a pure function of the dedicated seed, so
  // proposal i is the same value whether the process ran straight through
  // or resumed from a journal. The prefix recomputation is O(i) per call
  // and i stays tiny (degraded iterations).
  util::Rng halton_rng(options_.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<conf::Config> seq = conf::halton_sequence(
      objective_->space(), fallback_index_ + 1, halton_rng);
  ++fallback_index_;
  return seq.back();
}


namespace {

/// Simulated per-trial evaluation cost in hours; deterministic, so it is
/// safe for the golden-run snapshot.
constexpr double kSpentHoursBuckets[] = {0.5, 1.0, 2.0, 4.0, 8.0,
                                         16.0, 32.0, 64.0, 128.0};

/// Publishes a pool's lifetime counters as threadpool.<pool>.* gauges.
void publish_pool_stats(const std::string& pool,
                        const util::ThreadPool::Stats& stats) {
  ADML_GAUGE_SET("threadpool." + pool + ".submitted",
                 static_cast<double>(stats.submitted));
  ADML_GAUGE_SET("threadpool." + pool + ".completed",
                 static_cast<double>(stats.completed));
  ADML_GAUGE_MAX("threadpool." + pool + ".peak_queue_depth",
                 static_cast<double>(stats.peak_queue_depth));
}

}  // namespace

/// One outstanding proposal. Created by ask(); its result is ingested in
/// ticket order, whether it was evaluated inline, on the executor, by a
/// session client, or recovered from the journal. The incumbent snapshot
/// is the freshest deterministically known best when this evaluation
/// starts, so the early-termination policy races in-flight runs against it
/// (and reclaims the budget of hopeless ones) without reading racy
/// cross-thread state.
struct BoTuner::Proposal : SessionAsk {
  /// Trials ingested when this proposal was asked; journaled so replay can
  /// re-issue asks and ingests in the recorded order.
  std::int64_t ingested_at_ask = 0;
  /// Kriging-believer placeholder conditioning later asks (never trained
  /// into feasibility/cost models, never journaled).
  Trial fantasy;
};

/// The ask/tell core's state, shared by tune() and session mode. `told`
/// buffers results whose ticket is not yet at the FIFO front: out-of-order
/// session reports, and journal records recovered by replay.
struct BoTuner::LoopState {
  std::vector<conf::Config> design;
  std::deque<Proposal> pending;
  std::int64_t next_index = 0;
  std::map<std::int64_t, Trial> told;
  TuningResult result;
};

BoTuner::~BoTuner() = default;

BoTuner::LoopState& BoTuner::loop(bool for_tune) {
  if (tuned_ || (for_tune && loop_)) {
    throw std::logic_error(
        "BoTuner: tune() runs once, and excludes ask/tell session mode");
  }
  tuned_ = for_tune;
  if (!loop_) {
    loop_ = std::make_unique<LoopState>();
    // The design is drawn before the first ask, so every driver consumes
    // rng_ in the same order.
    loop_->design = conf::latin_hypercube(
        objective_->space(),
        static_cast<std::size_t>(options_.initial_design_size), rng_);
    replay_journal();
  }
  return *loop_;
}

BoTuner::LoopState& BoTuner::session() {
  LoopState& s = loop(/*for_tune=*/false);
  // Journal records replayed behind the last replayed ask are ingested
  // before the session serves traffic.
  while (ingest_told_front()) {
  }
  return s;
}

bool BoTuner::can_propose() const {
  const TuningResult& result = session_result();
  return static_cast<int>(result.trials.size() + session_pending()) <
             options_.max_evaluations &&
         result.total_spent_seconds < options_.max_spent_seconds;
}

void BoTuner::replay_journal() {
  LoopState& s = *loop_;
  for (Trial& record : replay_) {
    // Re-ingest what the original run had ingested when it asked this
    // record's proposal. Records without the field predate it; every
    // writer of that era asked proposal i after max(0, i - q + 1) ingests.
    const std::int64_t asked_at =
        record.ingested_at_ask >= 0
            ? record.ingested_at_ask
            : std::max<std::int64_t>(0, s.next_index - options_.async_q + 1);
    while (static_cast<std::int64_t>(s.result.trials.size()) < asked_at &&
           ingest_told_front()) {
    }
    if (!can_propose()) break;
    const Proposal& p = ask();
    // The journaled config went through a JSON round trip; the regenerated
    // proposal is the bit-exact original. Verify they agree (any real
    // divergence means the options or space changed); ingestion keeps the
    // proposal's config so the surrogate sees an uninterrupted run's inputs.
    const math::Vec a = objective_->space().encode(record.config);
    const math::Vec b = objective_->space().encode(p.config);
    double max_diff = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
      max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
    if (static_cast<std::int64_t>(s.result.trials.size()) != asked_at ||
        max_diff > 1e-9) {
      throw std::invalid_argument(
          "BoTuner: journal replay diverged at trial " +
          std::to_string(p.ticket) + " (journaled " +
          record.config.to_string() + " after " + std::to_string(asked_at) +
          " ingests, proposed " + p.config.to_string() + " after " +
          std::to_string(s.result.trials.size()) +
          "); the journal was written with different options or a "
          "different space");
    }
    record.config = p.config;
    // Advance the objective's per-run state at ask time, in proposal order
    // relative to the live evaluations asked after this one.
    objective_->notify_replayed(record);
    ADML_COUNT("tuner.replayed_trials", 1);
    s.told.emplace(p.ticket, std::move(record));
    ++replayed_;
  }
  replay_.clear();
}

bool BoTuner::ingest_told_front() {
  LoopState& s = *loop_;
  if (s.pending.empty()) return false;
  const auto it = s.told.find(s.pending.front().ticket);
  if (it == s.told.end()) return false;
  Trial trial = std::move(it->second);
  s.told.erase(it);
  ingest_front(std::move(trial));
  return true;
}

void BoTuner::ingest_front(Trial trial) {
  LoopState& s = *loop_;
  Proposal front = std::move(s.pending.front());
  s.pending.pop_front();
  // Keep the bit-exact proposal config: a session client's copy went
  // through a JSON round trip.
  trial.config = front.config;
  trial.proposal_index = front.ticket;
  trial.ingested_at_ask = front.ingested_at_ask;
  // Proposals 0..replayed_-1 were recovered from the journal.
  if (front.ticket >= static_cast<std::int64_t>(replayed_)) {
    ADML_HISTOGRAM("tuner.trial_spent_hours", kSpentHoursBuckets,
                   trial.outcome.spent_seconds / 3600.0);
    if (trial.outcome.aborted) ADML_COUNT("tuner.early_terminated", 1);
    if (journal_) {
      ADML_SPAN("tuner.journal_append");
      journal_->append(trial);
    }
  }
  history_.push_back(trial);
  record_trial(s.result, std::move(trial));
}

std::size_t BoTuner::drain_replay() {
  session();
  return replayed_;
}

std::optional<BoTuner::SessionAsk> BoTuner::ask_next() {
  LoopState& s = session();
  if (!can_propose()) return std::nullopt;
  SessionAsk out = ask();
  ADML_GAUGE_MAX("tuner.session_pending_peak",
                 static_cast<double>(s.pending.size()));
  return out;
}

void BoTuner::tell_next(std::int64_t ticket, Trial trial) {
  LoopState& s = session();
  // Outstanding tickets are the contiguous range [front, next_index).
  if (s.pending.empty() || ticket < s.pending.front().ticket ||
      ticket >= s.next_index || s.told.count(ticket) != 0) {
    throw std::invalid_argument(
        "BoTuner: tell_next ticket " + std::to_string(ticket) +
        (ticket < s.next_index ? " was already reported"
                               : " was never asked"));
  }
  s.told.emplace(ticket, std::move(trial));
  // Strict-FIFO ingestion: fold in the front ticket and everything buffered
  // contiguously behind it. Journal bytes, surrogate inputs and rng state
  // stay one canonical sequence whatever order reports arrive in.
  while (ingest_told_front()) {
  }
}

const TuningResult& BoTuner::session_result() const {
  static const TuningResult kEmpty;
  return loop_ ? loop_->result : kEmpty;
}

std::size_t BoTuner::session_pending() const {
  return loop_ ? loop_->pending.size() : 0;
}

bool BoTuner::session_done() const {
  // Told results belong to outstanding tickets, so none are left either.
  return !can_propose() && session_pending() == 0;
}

Trial BoTuner::evaluate(const SessionAsk& ask) {
  Trial trial;
  if (ask.allow_early_term) {
    EarlyTerminationPolicy policy(options_.early_term, ask.incumbent);
    trial.outcome = objective_->run(ask.config, &policy);
    if (trial.outcome.aborted) {
      trial.outcome.projected_objective = policy.last_projection_unbiased();
    }
  } else {
    trial.outcome = objective_->run(ask.config, nullptr);
  }
  return trial;
}

const BoTuner::Proposal& BoTuner::ask() {
  LoopState& s = *loop_;
  Proposal p;
  p.ticket = s.next_index++;
  p.ingested_at_ask = static_cast<std::int64_t>(s.result.trials.size());
  p.incumbent = s.result.best_objective;
  SurrogateModel* model = &surrogate_;
  if (p.ticket < static_cast<std::int64_t>(s.design.size())) {
    // Initial design: run to completion (uncensored anchors). No model is
    // consulted, so the fantasy carries no belief (+inf objective) and only
    // dedups the pending point.
    p.config = s.design[static_cast<std::size_t>(p.ticket)];
  } else {
    // Condition the proposal on the history plus kriging-believer fantasies
    // of the outstanding proposals, so the acquisition repels them instead
    // of re-proposing next to them (propose_candidate also rejects exact
    // repeats). With nothing outstanding this is the plain surrogate.
    std::vector<Trial> augmented;
    const std::vector<Trial>* seen = &history_;
    if (!s.pending.empty()) {
      augmented = history_;
      for (const Proposal& pe : s.pending) augmented.push_back(pe.fantasy);
      seen = &augmented;
      model = &fantasy_model_;
    }
    model->update(*seen);
    std::optional<conf::Config> candidate;
    const bool explore = rng_.bernoulli(options_.random_interleave_prob);
    if (model->ready() && !explore) {
      ADML_SPAN("tuner.propose");
      candidate = propose_candidate(*model, options_.acquisition, *seen, rng_,
                                    options_.acq_optimizer);
    }
    if (!candidate && model->degraded()) {
      // Degraded surrogate: no posterior to maximize, but the run should
      // still make progress. Quasi-random coverage beats iid uniform here,
      // and the dedicated stream keeps it reproducible (see
      // fallback_config).
      ADML_COUNT("tuner.fallback_proposals", 1);
      candidate = fallback_config();
    }
    if (!candidate) {
      ADML_COUNT("tuner.random_proposals", 1);
      candidate = sample_unseen(objective_->space(), *seen, rng_);
    }
    p.config = std::move(*candidate);
    p.allow_early_term = options_.early_term.enabled;
  }
  p.fantasy = make_fantasy_trial(*model, p.config);
  s.pending.push_back(std::move(p));
  return s.pending.back();
}

TuningResult BoTuner::tune() {
  ADML_SPAN("tuner.tune");
  util::Stopwatch wall;
  LoopState& s = loop(/*for_tune=*/true);
  TuningResult& result = s.result;
  // Deadline watchdog: checked between trials, never mid-evaluation. Every
  // finished trial is already fsynced in the journal, so hitting the
  // deadline is a clean checkpoint-and-exit, not an abort.
  const auto deadline_hit = [&] {
    if (result.wall_deadline_hit) return true;
    const double now =
        options_.wall_clock ? options_.wall_clock() : wall.elapsed_seconds();
    if (!(now >= options_.max_wall_seconds)) return false;
    result.wall_deadline_hit = true;
    ADML_COUNT("tuner.wall_deadline_hits", 1);
    ADML_WARN << "tuner: wall-clock deadline (" << options_.max_wall_seconds
              << "s) reached after " << result.trials.size()
              << " trials; checkpointing and stopping (journal is resumable)";
    return true;
  };

  // async_q == 1 evaluates inline on this thread. Deeper pipelines keep up
  // to async_q evaluations on an executor; objectives with per-run
  // deterministic state run serialized there (starts still overlap with
  // proposal work), concurrent-safe ones get real q-way overlap.
  std::unique_ptr<AsyncEvalExecutor> executor;
  if (options_.async_q > 1) {
    executor = std::make_unique<AsyncEvalExecutor>(
        static_cast<std::size_t>(options_.async_workers > 0
                                     ? options_.async_workers
                                     : options_.async_q),
        !objective_->concurrent_runs_safe());
  }
  // One tick: fill the pipeline to async_q, then tell the oldest proposal's
  // result back. Strict FIFO — completion order never reaches this thread.
  const auto step = [&] {
    while (static_cast<int>(s.pending.size()) < options_.async_q &&
           can_propose() && !deadline_hit()) {
      const Proposal& p = ask();
      if (executor) executor->submit([this, p] { return evaluate(p); });
    }
    if (s.pending.empty()) return false;
    if (executor) {
      ADML_GAUGE_MAX("tuner.in_flight_peak",
                     static_cast<double>(executor->in_flight()));
    }
    if (ingest_told_front()) return true;  // recovered from the journal
    if (!executor) {
      ADML_SPAN("tuner.evaluate");
      ingest_front(evaluate(s.pending.front()));
      return true;
    }
    ingest_front(executor->next_result());
    ADML_GAUGE_SET("tuner.in_flight",
                   static_cast<double>(executor->in_flight()));
    return true;
  };
  {
    ADML_SPAN("tuner.initial_design");
    while (result.trials.size() < s.design.size() && step()) {
    }
  }
  while (true) {
    ADML_SPAN("tuner.iteration");
    if (!step()) break;
  }
  if (executor) publish_pool_stats("eval", executor->pool_stats());

  // Leave the surrogate fitted on everything seen (sensitivity analysis) —
  // unless the wall deadline fired: the watchdog's contract is a prompt
  // exit, and a resumed process refits from the journal anyway.
  if (!result.wall_deadline_hit) surrogate_.update(history_);
  ADML_COUNT("tuner.trials", static_cast<std::int64_t>(result.trials.size()));
  if (result.found_feasible())
    ADML_GAUGE_SET("tuner.best_objective", result.best_objective);
  ADML_GAUGE_ADD("tuner.simulated_spent_seconds", result.total_spent_seconds);
  return result;
}

}  // namespace autodml::core
