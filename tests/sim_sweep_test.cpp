// Simulator bit-identity gate: simulate_ps and simulate_allreduce over a
// fixed sweep of architectures, sync modes, cluster sizes, comm threads,
// compression and fault injection, with every RuntimeStats field compared
// exactly against tests/golden/sim_sweep.json.
//
// Doubles are recorded as C99 hex-float strings ("%a"), so a one-ulp change
// in any simulated timing fails the test and names the case and field. The
// snapshot pins the simulator's physics *and* its floating-point evaluation
// order: a performance change to the event queue or the flow network must
// leave it untouched. After an intentional physics change, regenerate with
//
//   AUTODML_UPDATE_GOLDEN=1 build/tests/sim_sweep_test
//
// and review the diff like any other code change.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "sim/allreduce_runtime.h"
#include "sim/fault_injector.h"
#include "sim/ps_runtime.h"
#include "util/fs.h"
#include "util/json.h"

namespace autodml::sim {
namespace {

const char* kGoldenPath = AUTODML_SOURCE_DIR "/tests/golden/sim_sweep.json";

constexpr int kWorkerCounts[] = {1, 2, 7, 16, 48};
constexpr int kServerCounts[] = {1, 3, 8};
constexpr int kCommThreads[] = {1, 4};
constexpr const char* kSyncModes[] = {"bsp", "asp", "ssp"};

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

util::JsonValue stats_to_json(const RuntimeStats& s) {
  util::JsonObject o;
  o["completed"] = s.completed;
  o["sim_seconds"] = hex(s.sim_seconds);
  o["updates_per_second"] = hex(s.updates_per_second);
  o["samples_per_second"] = hex(s.samples_per_second);
  o["mean_iteration_seconds"] = hex(s.mean_iteration_seconds);
  o["mean_staleness"] = hex(s.mean_staleness);
  o["bytes_per_update"] = hex(s.bytes_per_update);
  o["blocked_fraction"] = hex(s.blocked_fraction);
  o["fault_downtime_seconds"] = hex(s.fault_downtime_seconds);
  o["fault_events"] = s.fault_events;
  return util::JsonValue(std::move(o));
}

Cluster make_cluster(int workers, int servers, std::uint64_t seed) {
  ClusterSpec spec;
  spec.worker_type = "std8";
  spec.server_type = "mem8";
  spec.num_workers = workers;
  spec.num_servers = servers;
  util::Rng rng(seed);
  return provision(spec, rng);
}

JobParams make_job(SyncMode sync, int comm_threads, bool compress) {
  JobParams job;
  job.model_bytes = 600e6;
  job.flops_per_sample = 4e9;
  job.batch_per_worker = 32;
  job.sync = sync;
  job.staleness = sync == SyncMode::kSsp ? 2 : 0;
  job.comm_threads = comm_threads;
  job.compression = compress ? Compression::kFp16 : Compression::kNone;
  return job;
}

std::optional<FaultInjector> make_faults(bool on, int workers,
                                         std::uint64_t seed) {
  if (!on) return std::nullopt;
  return FaultInjector(light_fault_spec(), static_cast<std::size_t>(workers),
                       seed);
}

util::JsonValue run_sweep() {
  util::JsonObject cases;
  std::uint64_t seed = 1;
  for (const int w : kWorkerCounts) {
    for (const bool compress : {false, true}) {
      for (const bool faults_on : {false, true}) {
        ++seed;
        const auto faults = make_faults(faults_on, w, seed);
        const std::string suffix = "-w" + std::to_string(w) +
                                   (compress ? "-fp16" : "-raw") +
                                   (faults_on ? "-faults" : "-clean");
        for (const int s : kServerCounts) {
          for (const int threads : kCommThreads) {
            for (const char* sync : kSyncModes) {
              PsSimOptions options;
              options.warmup_iterations = 2;
              options.measure_iterations = 6;
              if (faults) options.faults = &*faults;
              util::Rng rng(seed);
              const RuntimeStats stats =
                  simulate_ps(make_cluster(w, s, seed),
                              make_job(sync_mode_from_string(sync), threads,
                                       compress),
                              rng, options);
              cases["ps-" + std::string(sync) + suffix + "-s" +
                    std::to_string(s) + "-t" + std::to_string(threads)] =
                  stats_to_json(stats);
            }
          }
        }
        AllReduceSimOptions options;
        options.warmup_iterations = 2;
        options.measure_iterations = 6;
        if (faults) options.faults = &*faults;
        util::Rng rng(seed);
        const RuntimeStats stats =
            simulate_allreduce(make_cluster(w, 0, seed),
                               make_job(SyncMode::kBsp, 4, compress), rng,
                               options);
        cases["allreduce" + suffix] = stats_to_json(stats);
      }
    }
  }
  util::JsonObject doc;
  doc["schema"] = "autodml.sim_sweep.v1";
  doc["cases"] = std::move(cases);
  return util::JsonValue(std::move(doc));
}

TEST(SimSweep, EveryRuntimeStatMatchesGoldenBitForBit) {
  const util::JsonValue actual = run_sweep();

  if (std::getenv("AUTODML_UPDATE_GOLDEN") != nullptr) {
    util::write_file_atomic(kGoldenPath, util::dump_json(actual, 1) + "\n");
    GTEST_SKIP() << "sweep snapshot regenerated at " << kGoldenPath;
  }

  const util::JsonValue golden = util::parse_json(util::read_file(kGoldenPath));
  ASSERT_EQ(golden.at("schema").as_string(), "autodml.sim_sweep.v1");
  const auto& want = golden.at("cases").as_object();
  const auto& got = actual.at("cases").as_object();
  ASSERT_EQ(want.size(), got.size());
  for (const auto& [name, fields] : want) {
    ASSERT_TRUE(got.count(name)) << name << ": missing from the sweep";
    for (const auto& [field, value] : fields.as_object()) {
      EXPECT_EQ(util::dump_json(value), util::dump_json(got.at(name).at(field)))
          << name << "." << field;
    }
  }
}

TEST(SimSweep, SnapshotCoversFaultsAndCompletedRuns) {
  // A gate whose runs never see a fault or never finish pins nothing.
  const util::JsonValue golden = util::parse_json(util::read_file(kGoldenPath));
  const auto& cases = golden.at("cases").as_object();
  std::size_t with_faults = 0, completed = 0;
  for (const auto& [name, fields] : cases) {
    if (fields.at("fault_events").as_number() > 0) ++with_faults;
    if (fields.at("completed").as_bool()) ++completed;
  }
  EXPECT_EQ(cases.size(), 380u);
  EXPECT_GT(with_faults, 40u);
  EXPECT_EQ(completed, cases.size());
}

}  // namespace
}  // namespace autodml::sim
