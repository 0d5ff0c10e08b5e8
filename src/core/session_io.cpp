#include "core/session_io.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace autodml::core {

namespace {

util::JsonValue value_to_json(const conf::ParamValue& v) {
  return std::visit(
      [](const auto& x) -> util::JsonValue {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::int64_t>) {
          return util::JsonValue(static_cast<double>(x));
        } else if constexpr (std::is_same_v<T, double>) {
          return util::JsonValue(x);
        } else if constexpr (std::is_same_v<T, std::string>) {
          return util::JsonValue(x);
        } else {
          return util::JsonValue(x);  // bool
        }
      },
      v);
}

conf::ParamValue value_from_json(const conf::ParamSpec& spec,
                                 const util::JsonValue& v) {
  switch (spec.kind()) {
    case conf::ParamKind::kInt:
    case conf::ParamKind::kIntChoice:
      if (!v.is_number())
        throw std::invalid_argument("session: expected number for " +
                                    spec.name());
      return static_cast<std::int64_t>(v.as_number());
    case conf::ParamKind::kContinuous:
      if (!v.is_number())
        throw std::invalid_argument("session: expected number for " +
                                    spec.name());
      return v.as_number();
    case conf::ParamKind::kCategorical:
      if (!v.is_string())
        throw std::invalid_argument("session: expected string for " +
                                    spec.name());
      return v.as_string();
    case conf::ParamKind::kBool:
      if (!v.is_bool())
        throw std::invalid_argument("session: expected bool for " +
                                    spec.name());
      return v.as_bool();
  }
  throw std::logic_error("session: unreachable");
}

// Defensive accessors: session files arrive from disk and may be hand
// edited or truncated, so every type mismatch must surface as
// invalid_argument with field context, never as bad_variant_access.
const util::JsonValue& require(const util::JsonValue& object,
                               std::string_view key,
                               const std::string& where) {
  if (!object.is_object() || !object.contains(key))
    throw std::invalid_argument("session: " + where + ": missing '" +
                                std::string(key) + "'");
  return object.at(key);
}

bool require_bool(const util::JsonValue& object, std::string_view key,
                  const std::string& where) {
  const util::JsonValue& v = require(object, key, where);
  if (!v.is_bool())
    throw std::invalid_argument("session: " + where + ": '" +
                                std::string(key) + "' must be a bool");
  return v.as_bool();
}

double require_number(const util::JsonValue& object, std::string_view key,
                      const std::string& where) {
  const util::JsonValue& v = require(object, key, where);
  if (!v.is_number())
    throw std::invalid_argument("session: " + where + ": '" +
                                std::string(key) + "' must be a number");
  return v.as_number();
}

std::string require_string(const util::JsonValue& object, std::string_view key,
                           const std::string& where) {
  const util::JsonValue& v = require(object, key, where);
  if (!v.is_string())
    throw std::invalid_argument("session: " + where + ": '" +
                                std::string(key) + "' must be a string");
  return v.as_string();
}

}  // namespace

util::JsonValue trial_to_json(const Trial& trial) {
  util::JsonObject config;
  const conf::ConfigSpace* space = trial.config.space();
  if (space == nullptr)
    throw std::invalid_argument("trial_to_json: unbound config");
  for (std::size_t i = 0; i < space->num_params(); ++i) {
    config.emplace(space->param(i).name(),
                   value_to_json(trial.config.value_at(i)));
  }
  util::JsonObject outcome;
  outcome.emplace("feasible", util::JsonValue(trial.outcome.feasible));
  outcome.emplace("aborted", util::JsonValue(trial.outcome.aborted));
  outcome.emplace("failure", util::JsonValue(trial.outcome.failure));
  outcome.emplace("failure_kind",
                  util::JsonValue(to_string(trial.outcome.failure_kind)));
  outcome.emplace("attempts", util::JsonValue(trial.outcome.attempts));
  // Infinity is not representable in JSON; null means "no objective".
  outcome.emplace("objective",
                  trial.succeeded() ? util::JsonValue(trial.outcome.objective)
                                    : util::JsonValue(nullptr));
  outcome.emplace("projected_objective",
                  std::isfinite(trial.outcome.projected_objective)
                      ? util::JsonValue(trial.outcome.projected_objective)
                      : util::JsonValue(nullptr));
  outcome.emplace("spent_seconds",
                  util::JsonValue(trial.outcome.spent_seconds));
  outcome.emplace("usd_per_hour",
                  util::JsonValue(trial.outcome.usd_per_hour));

  util::JsonObject out;
  out.emplace("config", std::move(config));
  out.emplace("outcome", std::move(outcome));
  // The tuner stamps both indices on every trial it ingests; trials from
  // elsewhere leave them unassigned and omit the fields.
  if (trial.proposal_index >= 0) {
    out.emplace("proposal_index",
                util::JsonValue(static_cast<double>(trial.proposal_index)));
  }
  if (trial.ingested_at_ask >= 0) {
    out.emplace("ingested_at_ask",
                util::JsonValue(static_cast<double>(trial.ingested_at_ask)));
  }
  return util::JsonValue(std::move(out));
}

Trial trial_from_json(const util::JsonValue& value,
                      const conf::ConfigSpace& space) {
  if (!value.is_object())
    throw std::invalid_argument("session: trial record must be an object");
  const util::JsonValue& config_value = require(value, "config", "trial");
  if (!config_value.is_object())
    throw std::invalid_argument("session: trial 'config' must be an object");
  conf::Config config = space.default_config();
  for (const auto& [name, v] : config_value.as_object()) {
    if (!space.contains(name))
      throw std::invalid_argument("session: unknown parameter " + name);
    const std::size_t idx = space.index_of(name);
    config.set_value_at(idx, value_from_json(space.param(idx), v));
  }
  space.canonicalize(config);
  space.validate(config);

  Trial trial;
  trial.config = std::move(config);
  const util::JsonValue& outcome = require(value, "outcome", "trial");
  trial.outcome.feasible = require_bool(outcome, "feasible", "outcome");
  trial.outcome.aborted = require_bool(outcome, "aborted", "outcome");
  trial.outcome.failure = require_string(outcome, "failure", "outcome");
  const util::JsonValue& objective = require(outcome, "objective", "outcome");
  if (objective.is_null()) {
    trial.outcome.objective = std::numeric_limits<double>::infinity();
  } else if (objective.is_number()) {
    trial.outcome.objective = objective.as_number();
  } else {
    throw std::invalid_argument(
        "session: outcome: 'objective' must be a number or null");
  }
  trial.outcome.spent_seconds =
      require_number(outcome, "spent_seconds", "outcome");
  trial.outcome.usd_per_hour =
      require_number(outcome, "usd_per_hour", "outcome");
  // Fields introduced with the robustness subsystem; legacy records fall
  // back to classifying the free-text failure string.
  if (outcome.contains("failure_kind")) {
    trial.outcome.failure_kind =
        failure_kind_from_string(require_string(outcome, "failure_kind",
                                                "outcome"));
  } else {
    trial.outcome.failure_kind =
        trial.outcome.feasible ? FailureKind::kNone
                               : classify_failure_text(trial.outcome.failure);
  }
  if (outcome.contains("attempts")) {
    const double attempts = require_number(outcome, "attempts", "outcome");
    if (attempts < 1.0)
      throw std::invalid_argument("session: outcome: 'attempts' must be >= 1");
    trial.outcome.attempts = static_cast<int>(attempts);
  }
  if (outcome.contains("projected_objective") &&
      !outcome.at("projected_objective").is_null()) {
    trial.outcome.projected_objective =
        require_number(outcome, "projected_objective", "outcome");
  }
  const auto index_field = [&](std::string_view key) -> std::int64_t {
    if (!value.contains(key)) return -1;
    const double index = require_number(value, key, "trial");
    if (index < 0.0)
      throw std::invalid_argument("session: trial: '" + std::string(key) +
                                  "' must be >= 0");
    return static_cast<std::int64_t>(index);
  };
  trial.proposal_index = index_field("proposal_index");
  trial.ingested_at_ask = index_field("ingested_at_ask");
  return trial;
}

std::string trials_to_json(std::span<const Trial> trials) {
  util::JsonArray array;
  array.reserve(trials.size());
  for (const Trial& t : trials) array.push_back(trial_to_json(t));
  util::JsonObject root;
  root.emplace("schema", util::JsonValue("autodml.trials.v1"));
  root.emplace("trials", std::move(array));
  return util::dump_json(util::JsonValue(std::move(root)), 2);
}

std::vector<Trial> trials_from_json(std::string_view json,
                                    const conf::ConfigSpace& space) {
  const util::JsonValue root = util::parse_json(json);
  if (!root.is_object() || !root.contains("trials"))
    throw std::invalid_argument("session: missing trials array");
  if (!root.at("trials").is_array())
    throw std::invalid_argument("session: 'trials' must be an array");
  const auto& array = root.at("trials").as_array();

  std::vector<Trial> out;
  out.reserve(array.size());
  for (std::size_t i = 0; i < array.size(); ++i) {
    try {
      out.push_back(trial_from_json(array[i], space));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("trial " + std::to_string(i) + ": " +
                                  e.what());
    }
  }
  return out;
}

void save_trials(const std::string& path, std::span<const Trial> trials) {
  util::write_file_atomic(path, trials_to_json(trials) + "\n");
}

std::vector<Trial> load_trials(const std::string& path,
                               const conf::ConfigSpace& space) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("load_trials: cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  try {
    return trials_from_json(buffer.str(), space);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

// ---- Trial journal ---------------------------------------------------------

namespace {

constexpr std::string_view kJournalSchema = "autodml.journal.v1";

std::string header_line(const JournalHeader& header) {
  util::JsonObject object;
  object.emplace("schema", util::JsonValue(std::string(kJournalSchema)));
  object.emplace("seed", util::JsonValue(static_cast<double>(header.seed)));
  object.emplace("num_params",
                 util::JsonValue(static_cast<double>(header.num_params)));
  return util::dump_json(util::JsonValue(std::move(object))) + "\n";
}

JournalHeader parse_header(const std::string& line, const std::string& path) {
  util::JsonValue value(nullptr);
  try {
    value = util::parse_json(line);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": not a trial journal (" + e.what() +
                                ")");
  }
  if (!value.is_object() || !value.contains("schema") ||
      !value.at("schema").is_string() ||
      value.at("schema").as_string() != kJournalSchema) {
    throw std::invalid_argument(path +
                                ": not a trial journal (bad header line)");
  }
  JournalHeader header;
  header.seed = static_cast<std::uint64_t>(
      require_number(value, "seed", "journal header"));
  header.num_params = static_cast<std::size_t>(
      require_number(value, "num_params", "journal header"));
  return header;
}

bool file_is_empty(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  return !file || file.tellg() == std::streampos(0);
}

}  // namespace

TrialJournal::TrialJournal(const std::string& path,
                           const JournalHeader& header)
    : appender_(path) {
  if (file_is_empty(path)) appender_.append(header_line(header));
}

void TrialJournal::append(const Trial& trial) {
  // Serialize outside the lock (the expensive part), write under it.
  const std::string record = util::dump_json(trial_to_json(trial)) + "\n";
  util::MutexLock lock(mu_);
  appender_.append(record);
}

std::string dump_journal(const JournalHeader& header,
                         std::span<const Trial> trials) {
  std::string out = header_line(header);
  for (const Trial& t : trials)
    out += util::dump_json(trial_to_json(t)) + "\n";
  return out;
}

LoadedJournal load_journal(const std::string& path,
                           const conf::ConfigSpace& space) {
  LoadedJournal out;
  std::ifstream file(path);
  if (!file) return out;  // no journal yet: fresh session

  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.empty()) return out;

  out.header = parse_header(lines.front(), path);
  // Replay is positional, so a duplicated trailing record (a restart that
  // re-evaluated and re-appended a trial whose first append was already
  // durable) would diverge the resumed proposal stream at the duplicate.
  // Records serialize deterministically, so byte-identical adjacent tail
  // lines are the same trial; drop the duplicate. Worst case (a genuine
  // repeat proposal at the tail) the trial is re-evaluated, which the
  // deterministic objective reproduces exactly.
  if (lines.size() >= 3 && lines.back() == lines[lines.size() - 2]) {
    lines.pop_back();
    out.deduped_tail = true;
  }
  for (std::size_t i = 1; i < lines.size(); ++i) {
    try {
      out.trials.push_back(trial_from_json(util::parse_json(lines[i]), space));
    } catch (const std::invalid_argument& e) {
      if (i + 1 == lines.size()) {
        // The record being written at the instant of death: skip it. Its
        // evaluation was never acted on, so re-running it is correct.
        out.torn_tail = true;
        break;
      }
      throw std::invalid_argument(path + ": corrupt journal record " +
                                  std::to_string(i) + ": " + e.what());
    }
  }
  // Out-of-order tolerance: the tuner stamps every record with its
  // proposal index, so replay order is defined by the index, not by append
  // order. (The in-tree writer ingests FIFO and appends in index order; the
  // sort is the schema's contract for any conforming writer.) A journal
  // whose records only partially carry indices (a legacy synchronous
  // journal resumed by a newer tuner) is positional.
  const bool all_indexed =
      !out.trials.empty() &&
      std::all_of(out.trials.begin(), out.trials.end(),
                  [](const Trial& t) { return t.proposal_index >= 0; });
  if (all_indexed) {
    std::stable_sort(out.trials.begin(), out.trials.end(),
                     [](const Trial& a, const Trial& b) {
                       return a.proposal_index < b.proposal_index;
                     });
    for (std::size_t i = 0; i < out.trials.size(); ++i) {
      if (out.trials[i].proposal_index != static_cast<std::int64_t>(i)) {
        throw std::invalid_argument(
            path + ": journal proposal indices are not contiguous (record " +
            std::to_string(i) + " carries index " +
            std::to_string(out.trials[i].proposal_index) +
            "); the journal lost a record and cannot be replayed");
      }
    }
  }
  return out;
}

}  // namespace autodml::core
