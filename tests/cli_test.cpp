// The search cost `autodml_cli tune` reports. The tuner's result sums each
// trial's spent seconds and attempts, journal-replayed trials included;
// the evaluator's ledger only charges runs this process made. The first
// test pins that the two agree on an uninterrupted supervised run (retry
// backoff included); the CLI tests drive the built binary and check that
// a resumed session prints the uninterrupted run's cost.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/bo_tuner.h"
#include "sim/fault_injector.h"
#include "util/string_util.h"
#include "workloads/eval_supervisor.h"
#include "workloads/evaluator.h"
#include "workloads/workload.h"

namespace autodml {
namespace {

struct CliRun {
  int exit_code = -1;
  std::string out;
};

CliRun run_cli(const std::string& args) {
  const std::string cmd = std::string(AUTODML_CLI_PATH) + " " + args + " 2>&1";
  CliRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0)
    run.out.append(buf, got);
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

/// The line of `out` that starts with `prefix`, or "" when none does.
std::string line_starting(const std::string& out, const std::string& prefix) {
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t end = out.find('\n', pos);
    if (end == std::string::npos) end = out.size();
    if (out.compare(pos, prefix.size(), prefix) == 0)
      return out.substr(pos, end - pos);
    pos = end + 1;
  }
  return "";
}

constexpr const char* kTune = "tune --workload=logreg-ads --seed=3";

TEST(SearchCost, TuningResultEqualsTheLedgerUnderLightFaults) {
  // What `tune --workload=logreg-ads --seed=3 --evals=8 --faults=light`
  // runs: supervised evaluations with retries and backoff.
  wl::EvaluatorOptions eval_options;
  eval_options.faults = sim::light_fault_spec();
  wl::Evaluator evaluator(wl::workload_by_name("logreg-ads"), 3,
                          eval_options);
  wl::EvalSupervisor supervisor(evaluator, wl::RetryPolicy{}, 3);
  wl::SupervisedObjective objective(supervisor);
  core::BoOptions options;
  options.seed = 3;
  options.max_evaluations = 8;
  core::BoTuner tuner(objective, options);
  const core::TuningResult result = tuner.tune();

  std::size_t attempts = 0;
  for (const core::Trial& t : result.trials)
    attempts += static_cast<std::size_t>(t.outcome.attempts);
  ASSERT_GT(attempts, result.trials.size()) << "no retry: backoff untested";
  EXPECT_EQ(attempts, evaluator.num_runs());
  // Per-trial sums added up vs one running sum: equal up to rounding.
  EXPECT_NEAR(result.total_spent_seconds, evaluator.total_spent_seconds(),
              1e-9 * evaluator.total_spent_seconds());

  const CliRun cli = run_cli(std::string(kTune) + " --evals=8 --faults=light");
  ASSERT_EQ(cli.exit_code, 0) << cli.out;
  EXPECT_EQ(line_starting(cli.out, "search cost:"),
            "search cost: " +
                util::fmt(evaluator.total_spent_seconds() / 3600.0) +
                " simulated hours over " + std::to_string(attempts) + " runs")
      << cli.out;
}

TEST(CliSearchCost, ResumedSessionPrintsTheUninterruptedCost) {
  const std::filesystem::path journal =
      std::filesystem::path(::testing::TempDir()) /
      "cli_search_cost_resume.journal";
  std::filesystem::remove(journal);

  const CliRun whole = run_cli(std::string(kTune) + " --evals=8");
  ASSERT_EQ(whole.exit_code, 0) << whole.out;
  const std::string want = line_starting(whole.out, "search cost:");
  ASSERT_FALSE(want.empty()) << whole.out;

  const std::string journaled =
      std::string(kTune) + " --journal=" + journal.string();
  ASSERT_EQ(run_cli(journaled + " --evals=6").exit_code, 0);
  const CliRun resumed = run_cli(journaled + " --evals=8");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.out;
  EXPECT_NE(resumed.out.find("replayed 6 trials"), std::string::npos)
      << resumed.out;
  EXPECT_EQ(line_starting(resumed.out, "search cost:"), want) << resumed.out;
  std::filesystem::remove(journal);
}

}  // namespace
}  // namespace autodml
