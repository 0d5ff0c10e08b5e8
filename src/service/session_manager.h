// SessionManager: shards thousands of independent ask/tell tuning sessions
// across one util::ThreadPool and speaks the line-delimited JSON protocol.
//
// Threading model — actor per session. Every session lives in an Entry
// holding (a) an op queue and (b) the TuningSession state, each behind its
// own mutex. handle_line() parses the frame, enqueues the op on its
// session's queue and blocks on the reply future; the first op landing on
// an idle queue submits a *drain* task to the shared worker pool, which
// executes queued ops back-to-back under the entry's state mutex until the
// queue is empty. This gives:
//
//   - per-session serialization (one drain at a time per entry, so the
//     BoTuner never sees concurrent ops),
//   - cross-session parallelism (drains for different sessions run on
//     different pool workers),
//   - burst batching (a burst of suggest calls against one session queues
//     up and is served by one drain, each ask conditioned on the fantasies
//     of the previous ones — the amortization the acquisition pipeline
//     already provides),
//   - bounded threads (thousands of sessions share `workers` threads; the
//     pool never blocks on a future, so there is no starvation deadlock).
//
// handle_line is safe to call from any number of threads (socket
// connection handlers, or tests driving the loopback transport directly).
//
// Durability: a session created with a "journal" path owns that file via
// the tuner's crash-safe TrialJournal. The manager keeps a journal-path
// registry so two live sessions can never share one journal (two
// TrialJournal writers would interleave records and corrupt replay) —
// creating the second returns the typed error "journal-in-use".
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>

#include "service/protocol.h"
#include "service/session.h"
#include "util/annotations.h"
#include "util/thread_pool.h"

namespace autodml::service {

struct ServiceOptions {
  /// Worker threads shared by every session's op drains.
  std::size_t workers = 4;
  /// Admission control: create-session past this count is rejected.
  std::size_t max_sessions = 4096;
  /// Default per-session cap on outstanding suggestions (create-session
  /// may override per session via options.max_pending).
  int default_max_pending = 16;
};

class SessionManager {
 public:
  explicit SessionManager(ServiceOptions options = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// The loopback transport: one request frame in, one response line out
  /// (no trailing newline). Never throws on client errors — every failure
  /// is a typed {"ok": false, "error": ...} response. Thread-safe.
  std::string handle_line(const std::string& line);

  /// True once a shutdown request was served (the socket server polls it).
  bool shutdown_requested() const;

 private:
  /// One queued request plus the promise its caller blocks on. The
  /// create-session op carries its pre-validated config so admission
  /// happens on the caller thread but construction on the pool.
  struct Op {
    Request request;
    std::shared_ptr<SessionConfig> create_config;
    std::shared_ptr<std::promise<std::string>> reply;
  };

  /// One session's actor: the op queue and the session state, each behind
  /// its own mutex so enqueuing never blocks on an op in progress. Only
  /// the (single, `draining`-guarded) drain task takes state_mu, but the
  /// annotation keeps every access provably locked.
  struct Entry {
    util::Mutex queue_mu;
    std::deque<Op> queue ADML_GUARDED_BY(queue_mu);
    bool draining ADML_GUARDED_BY(queue_mu) = false;
    util::Mutex state_mu;
    std::unique_ptr<TuningSession> session ADML_GUARDED_BY(state_mu);
    bool closed ADML_GUARDED_BY(state_mu) = false;
  };

  std::string dispatch(const Request& request);
  std::string handle_create(const Request& request);
  std::string route_to_session(const Request& request);
  std::shared_ptr<Entry> find_entry(const std::string& id) const;
  void enqueue(const std::shared_ptr<Entry>& entry, Op op);
  void drain(const std::shared_ptr<Entry>& entry);
  std::string execute_op(Entry& entry, Op& op) ADML_REQUIRES(entry.state_mu);
  /// Drops the session from the registry (and frees its journal path).
  void forget_session(const std::string& id, const std::string& journal);
  std::string format_error(const Request& request, const std::string& code,
                           const std::string& detail);

  ServiceOptions options_;
  std::unique_ptr<util::ThreadPool> pool_;
  mutable util::Mutex mu_;
  std::map<std::string, std::shared_ptr<Entry>> sessions_
      ADML_GUARDED_BY(mu_);
  /// journal path -> owning session id (see the durability note above).
  std::map<std::string, std::string> journal_owners_ ADML_GUARDED_BY(mu_);
  std::uint64_t sessions_created_ ADML_GUARDED_BY(mu_) = 0;
  mutable util::Mutex shutdown_mu_;
  bool shutdown_ ADML_GUARDED_BY(shutdown_mu_) = false;
};

}  // namespace autodml::service
