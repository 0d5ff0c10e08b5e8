// The trial record codec, tuning-session persistence and the crash-safe
// trial journal.
//
// One JSON schema for configurations and run outcomes, coded once here:
// every journal line and session-file trial embeds it, and the service
// wire carries the same config and outcome objects (service/ only maps the
// std::invalid_argument these functions throw onto typed protocol codes).
// Two on-disk forms embed the trial record:
//
//   - Session files ("autodml.trials.v1"): a pretty-printed JSON document
//     with a "trials" array, written atomically (temp file + fsync +
//     rename) so a crash mid-save never truncates a session. Used for
//     warm-starting later sessions, possibly on sibling workloads.
//
//   - Trial journals ("autodml.journal.v1"): line-delimited JSON, one
//     fsynced record per evaluated trial, appended as the tuner runs. A
//     tuning process killed mid-run resumes from its journal: every
//     journaled trial is replayed instead of re-evaluated, and because the
//     whole pipeline is deterministic the continuation reaches the same
//     final incumbent as an uninterrupted run. A torn final line (the
//     record being written at the instant of death) is tolerated; corrupt
//     interior lines are not.
//
// Configurations are stored by parameter *name and value*, not by encoded
// position, so a saved session survives reordering of parameters as long
// as names and kinds are stable; loading validates every value against the
// target space. Doubles are serialized with %.17g and round-trip exactly —
// journal replay depends on this.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/tuner_types.h"
#include "util/annotations.h"
#include "util/fs.h"
#include "util/json.h"

namespace autodml::core {

// ---- Trial record codec ----------------------------------------------------
// Parsers throw std::invalid_argument naming the offending field.

/// Name -> value object, every parameter included (inactive conditionals
/// carry their canonicalized defaults).
util::JsonValue config_to_json(const conf::Config& config);
/// Parse against `space`; unknown names and ill-typed or out-of-range
/// values throw.
conf::Config config_from_json(const util::JsonValue& value,
                              const conf::ConfigSpace& space);

/// feasible/aborted/failure/objective/spent_seconds/usd_per_hour are
/// required, failure_kind/attempts/projected_objective optional.
/// "objective" is null unless the run is feasible, not aborted and finite;
/// a feasible, non-aborted outcome without a numeric objective is
/// rejected, as are spent_seconds < 0 and attempts that are not an integer
/// >= 1.
util::JsonValue outcome_to_json(const RunOutcome& outcome);
RunOutcome outcome_from_json(const util::JsonValue& value);

/// One trial <-> one JSON object: {"config", "outcome", "proposal_index"?,
/// "ingested_at_ask"?} (shared by sessions and journals).
util::JsonValue trial_to_json(const Trial& trial);
Trial trial_from_json(const util::JsonValue& value,
                      const conf::ConfigSpace& space);

/// Trials -> JSON document (an object with a "trials" array).
std::string trials_to_json(std::span<const Trial> trials);

/// Parse back against `space`. Throws std::invalid_argument on malformed
/// documents, unknown parameters, or out-of-range values — always with
/// enough context (trial index, field name) to identify the bad record.
std::vector<Trial> trials_from_json(std::string_view json,
                                    const conf::ConfigSpace& space);

/// File helpers; throw std::runtime_error on I/O failure. Saving is atomic:
/// a crash mid-save leaves the previous file contents intact.
void save_trials(const std::string& path, std::span<const Trial> trials);
std::vector<Trial> load_trials(const std::string& path,
                               const conf::ConfigSpace& space);

// ---- Trial journal ---------------------------------------------------------

struct JournalHeader {
  std::uint64_t seed = 0;          // tuner seed the journal was written with
  std::size_t num_params = 0;      // space shape sanity check
};

struct LoadedJournal {
  JournalHeader header;
  std::vector<Trial> trials;
  bool torn_tail = false;  // last line was torn by a crash and was skipped
  /// The final record duplicated its predecessor byte-for-byte (a crash
  /// between a durable append and the tuner acting on it makes a restart
  /// re-append the same trial); the duplicate was dropped during replay.
  bool deduped_tail = false;
};

/// Append-only journal writer. Every append is fsynced before returning,
/// so the journal never lags the tuner by more than the record in flight.
///
/// Thread-safe: appends from concurrent sessions sharing one journal are
/// serialized under an internal mutex, so records never interleave
/// mid-line (the durability contract is per whole record). Replay does
/// not depend on append order: it is positional by proposal_index
/// (load_journal sorts by it) and verified by content (each record must
/// match the regenerated proposal).
///
/// Single-writer contract *across instances*: the mutex covers one
/// TrialJournal object, not the path. Two live instances on the same
/// path (two sessions, or two processes) would write whole records but
/// from divergent proposal sequences, which replay rejects as a
/// proposal-index gap or config mismatch instead of silently merging.
/// The service layer enforces one live owner per path at admission
/// (SessionManager's journal registry, typed error "journal-in-use");
/// the CLI relies on one tuner per --journal invocation.
class TrialJournal {
 public:
  /// Opens `path` for appending; writes the header line first when the
  /// file is new or empty.
  TrialJournal(const std::string& path, const JournalHeader& header);

  void append(const Trial& trial) ADML_EXCLUDES(mu_);

 private:
  util::Mutex mu_;
  util::DurableAppender appender_ ADML_GUARDED_BY(mu_);
};

/// Load a journal for resumption. Returns an empty trial list when the
/// file does not exist. Throws std::invalid_argument on a corrupt header
/// or interior record; a torn final line is skipped and flagged instead.
LoadedJournal load_journal(const std::string& path,
                           const conf::ConfigSpace& space);

/// Serialize a complete journal (header + one line per trial). Used with
/// util::write_file_atomic to repair a journal whose tail was torn.
std::string dump_journal(const JournalHeader& header,
                         std::span<const Trial> trials);

}  // namespace autodml::core
