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
        } else {
          return util::JsonValue(x);
        }
      },
      v);
}

conf::ParamValue value_from_json(const conf::ParamSpec& spec,
                                 const util::JsonValue& v) {
  const auto wrong_type = [&](const char* type) {
    return std::invalid_argument("config: '" + spec.name() + "' must be a " +
                                 type);
  };
  switch (spec.kind()) {
    case conf::ParamKind::kInt:
    case conf::ParamKind::kIntChoice:
      if (!v.is_number()) throw wrong_type("number");
      return static_cast<std::int64_t>(v.as_number());
    case conf::ParamKind::kContinuous:
      if (!v.is_number()) throw wrong_type("number");
      return v.as_number();
    case conf::ParamKind::kCategorical:
      if (!v.is_string()) throw wrong_type("string");
      return v.as_string();
    case conf::ParamKind::kBool:
      if (!v.is_bool()) throw wrong_type("bool");
      return v.as_bool();
  }
  throw std::logic_error("value_from_json: unreachable");
}

}  // namespace

util::JsonValue config_to_json(const conf::Config& config) {
  const conf::ConfigSpace* space = config.space();
  if (space == nullptr)
    throw std::invalid_argument("config_to_json: unbound config");
  util::JsonObject out;
  for (std::size_t i = 0; i < space->num_params(); ++i) {
    out.emplace(space->param(i).name(), value_to_json(config.value_at(i)));
  }
  return util::JsonValue(std::move(out));
}

conf::Config config_from_json(const util::JsonValue& value,
                              const conf::ConfigSpace& space) {
  if (!value.is_object())
    throw std::invalid_argument("config: must be an object");
  conf::Config config = space.default_config();
  for (const auto& [name, v] : value.as_object()) {
    if (!space.contains(name))
      throw std::invalid_argument("config: unknown parameter '" + name + "'");
    const std::size_t idx = space.index_of(name);
    config.set_value_at(idx, value_from_json(space.param(idx), v));
  }
  space.canonicalize(config);
  space.validate(config);
  return config;
}

util::JsonValue outcome_to_json(const RunOutcome& outcome) {
  util::JsonObject out;
  out.emplace("feasible", util::JsonValue(outcome.feasible));
  out.emplace("aborted", util::JsonValue(outcome.aborted));
  out.emplace("failure", util::JsonValue(outcome.failure));
  out.emplace("failure_kind",
              util::JsonValue(to_string(outcome.failure_kind)));
  out.emplace("attempts", util::JsonValue(outcome.attempts));
  // Infinity is not representable in JSON; null means "no objective".
  const bool has_objective = outcome.feasible && !outcome.aborted &&
                             std::isfinite(outcome.objective);
  out.emplace("objective", has_objective ? util::JsonValue(outcome.objective)
                                         : util::JsonValue(nullptr));
  out.emplace("projected_objective",
              std::isfinite(outcome.projected_objective)
                  ? util::JsonValue(outcome.projected_objective)
                  : util::JsonValue(nullptr));
  out.emplace("spent_seconds", util::JsonValue(outcome.spent_seconds));
  out.emplace("usd_per_hour", util::JsonValue(outcome.usd_per_hour));
  return util::JsonValue(std::move(out));
}

RunOutcome outcome_from_json(const util::JsonValue& value) {
  constexpr std::string_view kWhere = "outcome";
  if (!value.is_object())
    throw std::invalid_argument("outcome: must be an object");
  RunOutcome outcome;
  outcome.feasible = util::require_bool(value, "feasible", kWhere);
  outcome.aborted = util::require_bool(value, "aborted", kWhere);
  outcome.failure = util::require_string(value, "failure", kWhere);
  const util::JsonValue& objective = util::require(value, "objective", kWhere);
  if (objective.is_number()) {
    outcome.objective = objective.as_number();
  } else if (!objective.is_null()) {
    throw std::invalid_argument(
        "outcome: 'objective' must be a number or null");
  } else if (outcome.feasible && !outcome.aborted) {
    // The writer emits null for a completed run only when its objective is
    // not finite, which no reader could replay.
    throw std::invalid_argument(
        "outcome: a feasible, non-aborted outcome needs a numeric "
        "'objective'");
  }
  outcome.spent_seconds = util::require_number(value, "spent_seconds", kWhere);
  if (!(outcome.spent_seconds >= 0.0))
    throw std::invalid_argument("outcome: 'spent_seconds' must be >= 0");
  outcome.usd_per_hour = util::require_number(value, "usd_per_hour", kWhere);
  // Fields introduced with the robustness subsystem; legacy records fall
  // back to classifying the free-text failure string.
  if (value.contains("failure_kind")) {
    const std::string& kind =
        util::require_string(value, "failure_kind", kWhere);
    try {
      outcome.failure_kind = failure_kind_from_string(kind);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string("outcome: ") + e.what());
    }
  } else {
    outcome.failure_kind = outcome.feasible
                               ? FailureKind::kNone
                               : classify_failure_text(outcome.failure);
  }
  if (value.contains("attempts")) {
    const std::int64_t attempts =
        util::require_int(value, "attempts", kWhere);
    if (attempts < 1 || attempts > std::numeric_limits<int>::max())
      throw std::invalid_argument(
          "outcome: 'attempts' must be an integer in [1, INT_MAX]");
    outcome.attempts = static_cast<int>(attempts);
  }
  if (value.contains("projected_objective") &&
      !value.at("projected_objective").is_null()) {
    outcome.projected_objective =
        util::require_number(value, "projected_objective", kWhere);
  }
  return outcome;
}

util::JsonValue trial_to_json(const Trial& trial) {
  util::JsonObject out;
  out.emplace("config", config_to_json(trial.config));
  out.emplace("outcome", outcome_to_json(trial.outcome));
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
  Trial trial;
  trial.config =
      config_from_json(util::require(value, "config", "trial"), space);
  trial.outcome = outcome_from_json(util::require(value, "outcome", "trial"));
  const auto index_field = [&](std::string_view key) -> std::int64_t {
    if (!value.contains(key)) return -1;
    const double index = util::require_number(value, key, "trial");
    if (index < 0.0)
      throw std::invalid_argument("trial: '" + std::string(key) +
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
      util::require_number(value, "seed", "journal header"));
  header.num_params = static_cast<std::size_t>(
      util::require_number(value, "num_params", "journal header"));
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
