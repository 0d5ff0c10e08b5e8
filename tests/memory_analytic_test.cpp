#include <gtest/gtest.h>

#include "sim/analytic_model.h"
#include "sim/memory_model.h"
#include "sim/ps_runtime.h"
#include "sim/system_sim.h"
#include "util/stats.h"

namespace autodml::sim {
namespace {

Cluster make_cluster(int workers, int servers,
                     const std::string& wtype = "std8") {
  ClusterSpec spec;
  spec.worker_type = wtype;
  spec.server_type = "mem8";
  spec.num_workers = workers;
  spec.num_servers = servers;
  spec.heterogeneity_sigma = 0.0;
  spec.straggler_sigma = 0.0;
  util::Rng rng(1);
  return provision(spec, rng);
}

// ---- cluster / catalog ---------------------------------------------------------

TEST(Catalog, HasEightTypesWithSaneFields) {
  const auto& catalog = instance_catalog();
  EXPECT_EQ(catalog.size(), 8u);
  for (const auto& t : catalog) {
    EXPECT_GT(t.gflops, 0.0);
    EXPECT_GT(t.ram_gb, 0.0);
    EXPECT_GT(t.nic_gbps, 0.0);
    EXPECT_GT(t.usd_per_hour, 0.0);
  }
}

TEST(Catalog, LookupByName) {
  EXPECT_EQ(instance_by_name("gpu1").name, "gpu1");
  EXPECT_THROW(instance_by_name("nonexistent"), std::invalid_argument);
}

TEST(Cluster, ProvisionCountsAndPricing) {
  const Cluster c = make_cluster(3, 2);
  EXPECT_EQ(c.workers.size(), 3u);
  EXPECT_EQ(c.servers.size(), 2u);
  const double expected = 3 * instance_by_name("std8").usd_per_hour +
                          2 * instance_by_name("mem8").usd_per_hour;
  EXPECT_NEAR(c.usd_per_hour(), expected, 1e-12);
}

TEST(Cluster, SpeedFactorsNeverExceedOne) {
  ClusterSpec spec;
  spec.worker_type = "std4";
  spec.server_type = "mem8";
  spec.num_workers = 50;
  spec.heterogeneity_sigma = 0.3;
  util::Rng rng(9);
  const Cluster c = provision(spec, rng);
  for (const auto& n : c.workers) {
    EXPECT_LE(n.speed_factor, 1.0);
    EXPECT_GT(n.speed_factor, 0.0);
  }
}

TEST(Cluster, ProvisionValidation) {
  ClusterSpec spec;
  spec.worker_type = "std4";
  spec.num_workers = 0;
  util::Rng rng(1);
  EXPECT_THROW(provision(spec, rng), std::invalid_argument);
}

// ---- memory model ---------------------------------------------------------------

TEST(MemoryModel, FeasibleSmallJob) {
  JobParams job;
  job.model_bytes = 50e6;
  job.flops_per_sample = 1e7;
  job.batch_per_worker = 32;
  MemoryParams params;
  params.activation_bytes_per_sample = 1e5;
  const MemoryCheck check =
      check_memory(make_cluster(2, 1), job, Arch::kPs, params);
  EXPECT_TRUE(check.feasible);
  EXPECT_GT(check.worker_bytes, 0.0);
  EXPECT_GT(check.server_bytes, 0.0);
}

TEST(MemoryModel, WorkerOomOnHugeActivations) {
  JobParams job;
  job.model_bytes = 50e6;
  job.flops_per_sample = 1e7;
  job.batch_per_worker = 512;
  MemoryParams params;
  params.activation_bytes_per_sample = 1e8;  // 51 GB of activations
  const MemoryCheck check =
      check_memory(make_cluster(2, 1, "std4"), job, Arch::kPs, params);
  EXPECT_FALSE(check.feasible);
  EXPECT_NE(check.reason.find("worker OOM"), std::string::npos);
}

TEST(MemoryModel, ServerOomWithTooFewShards) {
  JobParams job;
  job.model_bytes = 60e9;  // 60 GB model
  job.flops_per_sample = 1e7;
  job.batch_per_worker = 1;
  MemoryParams params;
  // One mem8 server (128 GB) must hold model+optimizer = 180 GB -> OOM.
  const MemoryCheck check =
      check_memory(make_cluster(2, 1, "gpu4"), job, Arch::kPs, params);
  EXPECT_FALSE(check.feasible);
  EXPECT_NE(check.reason.find("server OOM"), std::string::npos);
  // Sharding across 4 servers fits (45 GB per server).
  const MemoryCheck sharded =
      check_memory(make_cluster(2, 4, "gpu4"), job, Arch::kPs, params);
  EXPECT_TRUE(sharded.feasible);
}

TEST(MemoryModel, AllReduceCarriesOptimizerStateOnWorkers) {
  JobParams job;
  job.model_bytes = 4e9;
  job.flops_per_sample = 1e7;
  job.batch_per_worker = 8;
  MemoryParams params;
  params.activation_bytes_per_sample = 1e5;
  // std8 = 32 GB. PS worker needs ~2 copies (9.2GB) -> fits;
  // all-reduce worker needs ~4 copies (17.2GB) -> fits; make it tighter:
  job.model_bytes = 9e9;
  const MemoryCheck ps =
      check_memory(make_cluster(2, 2), job, Arch::kPs, params);
  const MemoryCheck ar =
      check_memory(make_cluster(2, 0), job, Arch::kAllReduce, params);
  EXPECT_TRUE(ps.feasible);
  EXPECT_FALSE(ar.feasible);
}

TEST(MemoryModel, PsWithoutServersThrows) {
  JobParams job;
  job.model_bytes = 1e6;
  job.flops_per_sample = 1.0;
  job.batch_per_worker = 1;
  EXPECT_THROW(
      check_memory(make_cluster(2, 0), job, Arch::kPs, MemoryParams{}),
      std::invalid_argument);
}

TEST(MemoryModel, ArchStrings) {
  EXPECT_EQ(arch_from_string("ps"), Arch::kPs);
  EXPECT_EQ(arch_from_string("allreduce"), Arch::kAllReduce);
  EXPECT_THROW(arch_from_string("mesh"), std::invalid_argument);
}

// ---- analytic model -------------------------------------------------------------

TEST(AnalyticModel, ExpectedMaxFactorMonotone) {
  EXPECT_DOUBLE_EQ(expected_max_lognormal_factor(1, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(expected_max_lognormal_factor(8, 0.0), 1.0);
  const double f4 = expected_max_lognormal_factor(4, 0.2);
  const double f16 = expected_max_lognormal_factor(16, 0.2);
  EXPECT_GT(f4, 1.0);
  EXPECT_GT(f16, f4);
}

TEST(AnalyticModel, PsEstimatePositiveAndDecomposed) {
  JobParams job;
  job.model_bytes = 100e6;
  job.flops_per_sample = 1e8;
  job.batch_per_worker = 32;
  const AnalyticEstimate est = analytic_ps(make_cluster(4, 2), job);
  EXPECT_GT(est.compute_seconds, 0.0);
  EXPECT_GT(est.comm_seconds, 0.0);
  EXPECT_NEAR(est.iteration_seconds, est.compute_seconds + est.comm_seconds,
              1e-12);
  EXPECT_GT(est.updates_per_second, 0.0);
}

TEST(AnalyticModel, AspCappedByServerCapacity) {
  JobParams job;
  job.model_bytes = 800e6;  // comm-bound
  job.flops_per_sample = 1e6;
  job.batch_per_worker = 32;
  job.sync = SyncMode::kAsp;
  const AnalyticEstimate few = analytic_ps(make_cluster(32, 1), job);
  const AnalyticEstimate many = analytic_ps(make_cluster(32, 8), job);
  EXPECT_GT(many.updates_per_second, few.updates_per_second);
}

TEST(AnalyticModel, TracksDesAcrossConfigs) {
  // The closed form need not match the DES absolutely, but it must rank
  // configurations consistently (that is what screening requires).
  JobParams base;
  base.model_bytes = 120e6;
  base.flops_per_sample = 5e7;
  base.batch_per_worker = 32;

  std::vector<double> analytic, des;
  for (const auto& [w, s] : std::vector<std::pair<int, int>>{
           {2, 1}, {4, 2}, {8, 2}, {8, 8}, {16, 4}}) {
    const Cluster cluster = make_cluster(w, s);
    analytic.push_back(analytic_ps(cluster, base).updates_per_second);
    util::Rng rng(3);
    PsSimOptions options;
    options.warmup_iterations = 2;
    options.measure_iterations = 10;
    des.push_back(
        simulate_ps(cluster, base, rng, options).updates_per_second);
  }
  EXPECT_GT(util::spearman(analytic, des), 0.85);
}

TEST(AnalyticModel, DispatchMatchesArchSpecific) {
  JobParams job;
  job.model_bytes = 60e6;
  job.flops_per_sample = 1e8;
  job.batch_per_worker = 32;
  const Cluster ps_cluster = make_cluster(4, 2);
  EXPECT_DOUBLE_EQ(analytic_estimate(ps_cluster, job, Arch::kPs).updates_per_second,
                   analytic_ps(ps_cluster, job).updates_per_second);
  const Cluster ar_cluster = make_cluster(4, 0);
  EXPECT_DOUBLE_EQ(
      analytic_estimate(ar_cluster, job, Arch::kAllReduce).updates_per_second,
      analytic_allreduce(ar_cluster, job).updates_per_second);
}

// ---- system facade -------------------------------------------------------------

TEST(SystemSim, EvaluatesFeasiblePsSystem) {
  SystemConfig config;
  config.arch = Arch::kPs;
  config.cluster.worker_type = "std8";
  config.cluster.server_type = "mem8";
  config.cluster.num_workers = 4;
  config.cluster.num_servers = 2;
  config.job.model_bytes = 50e6;
  config.job.flops_per_sample = 1e7;
  config.job.batch_per_worker = 32;
  util::Rng rng(5);
  const SystemPerformance perf = evaluate_system(config, rng);
  EXPECT_TRUE(perf.feasible);
  EXPECT_GT(perf.runtime.updates_per_second, 0.0);
  EXPECT_GT(perf.usd_per_hour, 0.0);
}

TEST(SystemSim, AllReduceIgnoresServerCount) {
  SystemConfig config;
  config.arch = Arch::kAllReduce;
  config.cluster.worker_type = "std8";
  config.cluster.server_type = "mem8";
  config.cluster.num_workers = 4;
  config.cluster.num_servers = 7;  // must be ignored
  config.job.model_bytes = 50e6;
  config.job.flops_per_sample = 1e7;
  config.job.batch_per_worker = 32;
  util::Rng rng(5);
  const SystemPerformance perf = evaluate_system(config, rng);
  EXPECT_TRUE(perf.feasible);
  const double workers_only_rate = 4 * instance_by_name("std8").usd_per_hour;
  EXPECT_NEAR(perf.usd_per_hour, workers_only_rate, 1e-9);
}

TEST(SystemSim, PsWithoutServersThrows) {
  SystemConfig config;
  config.arch = Arch::kPs;
  config.cluster.worker_type = "std8";
  config.cluster.num_workers = 2;
  config.cluster.num_servers = 0;
  config.job.model_bytes = 1e6;
  config.job.flops_per_sample = 1.0;
  config.job.batch_per_worker = 1;
  util::Rng rng(1);
  EXPECT_THROW(evaluate_system(config, rng), std::invalid_argument);
}

TEST(SystemSim, ReportsOomAsInfeasible) {
  SystemConfig config;
  config.arch = Arch::kPs;
  config.cluster.worker_type = "std4";  // 16 GB
  config.cluster.server_type = "mem8";
  config.cluster.num_workers = 2;
  config.cluster.num_servers = 1;
  config.job.model_bytes = 20e9;
  config.job.flops_per_sample = 1e7;
  config.job.batch_per_worker = 32;
  util::Rng rng(5);
  const SystemPerformance perf = evaluate_system(config, rng);
  EXPECT_FALSE(perf.feasible);
  EXPECT_FALSE(perf.failure.empty());
}

// ---- job helpers -----------------------------------------------------------------

TEST(Job, StringRoundTrips) {
  EXPECT_EQ(sync_mode_from_string("bsp"), SyncMode::kBsp);
  EXPECT_EQ(sync_mode_from_string("asp"), SyncMode::kAsp);
  EXPECT_EQ(sync_mode_from_string("ssp"), SyncMode::kSsp);
  EXPECT_EQ(compression_from_string("none"), Compression::kNone);
  EXPECT_EQ(compression_from_string("fp16"), Compression::kFp16);
  EXPECT_EQ(compression_from_string("int8"), Compression::kInt8);
  EXPECT_EQ(compression_from_string("topk"), Compression::kTopK);
  EXPECT_THROW(sync_mode_from_string("sgd"), std::invalid_argument);
  EXPECT_THROW(compression_from_string("zip"), std::invalid_argument);
}

TEST(Job, CompressionPropsSane) {
  const CompressionProps none = compression_props(Compression::kNone);
  EXPECT_DOUBLE_EQ(none.push_ratio, 1.0);
  EXPECT_DOUBLE_EQ(none.sample_penalty, 1.0);
  for (const auto c :
       {Compression::kFp16, Compression::kInt8, Compression::kTopK}) {
    const CompressionProps p = compression_props(c);
    EXPECT_LT(p.push_ratio, 1.0);
    EXPECT_GE(p.sample_penalty, 1.0);
    EXPECT_GT(p.flops_per_byte, 0.0);
  }
}

TEST(Job, ValidationCatchesBadFields) {
  JobParams job;
  job.model_bytes = 1e6;
  job.flops_per_sample = 1e6;
  job.batch_per_worker = 32;
  EXPECT_NO_THROW(job.validate());
  JobParams bad = job;
  bad.batch_per_worker = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = job;
  bad.model_bytes = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = job;
  bad.staleness = -1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = job;
  bad.comm_threads = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace autodml::sim
