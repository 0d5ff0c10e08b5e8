// Golden-run regression test: the canonical demo tuning session
// (logreg-ads, 30 evaluations, seed 1 — what `autodml_cli tune --demo`
// runs) compared field-by-field against a checked-in snapshot of its trial
// sequence, incumbent trajectory, and final metrics.
//
// Any intentional change to proposal order, simulator physics, surrogate
// numerics, or metric instrumentation shows up here as a precise diff path;
// regenerate with scripts/update_golden.sh (or AUTODML_UPDATE_GOLDEN=1)
// and review the golden diff like any other code change.
//
// Exactness: doubles are serialized with %.17g throughout util/json, which
// round-trips every finite double bit-exactly, so the comparison below
// uses == on numbers — no tolerances. The run is serial (async_q = 1, no
// threads) and every recorded metric is simulated/algorithmic, so the
// snapshot is scheduling-independent.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "core/bo_tuner.h"
#include "core/session_io.h"
#include "obs/metrics.h"
#include "util/fs.h"
#include "util/json.h"
#include "workloads/objective_adapter.h"

namespace autodml {
namespace {

const char* kGoldenPath = AUTODML_SOURCE_DIR "/tests/golden/demo_run.json";

util::JsonValue run_demo_session() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.reset();
  registry.enable();

  const wl::Workload& workload = wl::workload_by_name("logreg-ads");
  wl::Evaluator evaluator(workload, 1);
  wl::EvaluatorObjective objective(evaluator);
  core::BoOptions options;  // defaults = the CLI demo: 30 evals, LogEI
  options.seed = 1;
  core::BoTuner tuner(objective, options);
  const core::TuningResult result = tuner.tune();

  registry.disable();

  util::JsonObject doc;
  doc["schema"] = "autodml.golden.v1";
  doc["workload"] = workload.name;
  doc["seed"] = 1;
  util::JsonArray trials;
  for (const core::Trial& t : result.trials)
    trials.push_back(core::trial_to_json(t));
  doc["trials"] = std::move(trials);
  // Same convention as session files: infinity (no incumbent yet) -> null.
  util::JsonArray curve;
  for (double v : result.incumbent_curve) {
    if (std::isfinite(v)) {
      curve.emplace_back(v);
    } else {
      curve.emplace_back(nullptr);
    }
  }
  doc["incumbent_curve"] = std::move(curve);
  doc["best_objective"] = result.found_feasible()
                              ? util::JsonValue(result.best_objective)
                              : util::JsonValue(nullptr);
  doc["total_spent_seconds"] = result.total_spent_seconds;
  doc["metrics"] = registry.snapshot_json();
  return util::JsonValue(std::move(doc));
}

std::string type_name(const util::JsonValue& v) {
  if (v.is_null()) return "null";
  if (v.is_bool()) return "bool";
  if (v.is_number()) return "number";
  if (v.is_string()) return "string";
  if (v.is_array()) return "array";
  return "object";
}

/// Recursive field-by-field comparison; every mismatch is reported with
/// its full JSON path so a golden diff pinpoints what moved.
void expect_same(const util::JsonValue& golden, const util::JsonValue& actual,
                 const std::string& path) {
  if (type_name(golden) != type_name(actual)) {
    ADD_FAILURE() << path << ": golden is " << type_name(golden)
                  << " but run produced " << type_name(actual);
    return;
  }
  if (golden.is_number()) {
    if (!(golden.as_number() == actual.as_number())) {
      ADD_FAILURE() << path << ": golden " << util::dump_json(golden)
                    << " != actual " << util::dump_json(actual);
    }
  } else if (golden.is_array()) {
    const auto& g = golden.as_array();
    const auto& a = actual.as_array();
    if (g.size() != a.size()) {
      ADD_FAILURE() << path << ": golden has " << g.size()
                    << " elements but run produced " << a.size();
      return;
    }
    for (std::size_t i = 0; i < g.size(); ++i)
      expect_same(g[i], a[i], path + "[" + std::to_string(i) + "]");
  } else if (golden.is_object()) {
    const auto& g = golden.as_object();
    const auto& a = actual.as_object();
    for (const auto& [key, value] : g) {
      if (!actual.contains(key)) {
        ADD_FAILURE() << path << "." << key << ": missing from run output";
        continue;
      }
      expect_same(value, a.at(key), path + "." + key);
    }
    for (const auto& [key, value] : a) {
      if (!golden.contains(key))
        ADD_FAILURE() << path << "." << key << ": not in golden file";
    }
  } else if (!(golden == actual)) {
    ADD_FAILURE() << path << ": golden " << util::dump_json(golden)
                  << " != actual " << util::dump_json(actual);
  }
}

TEST(GoldenRun, DemoSessionMatchesCheckedInSnapshot) {
  const util::JsonValue actual = run_demo_session();

  if (std::getenv("AUTODML_UPDATE_GOLDEN") != nullptr) {
    util::write_file_atomic(kGoldenPath, util::dump_json(actual, 1) + "\n");
    GTEST_SKIP() << "golden file regenerated at " << kGoldenPath
                 << "; review the diff and rerun without "
                    "AUTODML_UPDATE_GOLDEN";
  }

  const util::JsonValue golden = util::parse_json(util::read_file(kGoldenPath));
  // Cheap sanity on the golden file itself before diving into the diff.
  ASSERT_EQ(golden.at("schema").as_string(), "autodml.golden.v1");
  ASSERT_EQ(golden.at("trials").as_array().size(), 30u);
  expect_same(golden, actual, "$");
}

TEST(GoldenRun, DemoSessionIsRunToRunDeterministic) {
  // The golden comparison is only meaningful if the session reproduces at
  // all; a flaky mismatch here means nondeterminism, not a golden drift.
  EXPECT_TRUE(run_demo_session() == run_demo_session());
}

}  // namespace
}  // namespace autodml
