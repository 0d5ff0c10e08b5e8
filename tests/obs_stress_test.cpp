// Concurrency stress for the observability layer: many threads hammering
// the Tracer and MetricsRegistry through util::ThreadPool. Runs under the
// TSan CI leg (scripts/check.sh tsan), which is the real point — data
// races in per-thread buffers or atomic instruments surface there. The
// assertions here check that nothing is lost or double-counted.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace autodml {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kTasks = 400;
constexpr int kEventsPerTask = 25;

TEST(ObsStress, TracerAndMetricsSurviveConcurrentRecording) {
  obs::Tracer& tracer = obs::Tracer::instance();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.reset();
  registry.enable();
  tracer.start();

  static const double kBounds[] = {4.0, 16.0, 64.0, 256.0};
  {
    util::ThreadPool pool(kThreads);
    util::parallel_for(pool, kTasks, [&](std::size_t task) {
      ADML_SPAN("stress.task");
      for (int i = 0; i < kEventsPerTask; ++i) {
        ADML_SPAN("stress.step");
        ADML_COUNT("stress.events", 1);
        ADML_GAUGE_ADD("stress.accumulated", 1.0);
        ADML_GAUGE_MAX("stress.peak_task", static_cast<double>(task));
        // Integer values: the merged double sum is exact, so the final
        // histogram is assertable despite arbitrary interleaving.
        ADML_HISTOGRAM("stress.values", kBounds,
                       static_cast<double>(i * kThreads));
        if (i % 10 == 0) ADML_TRACE_INSTANT("stress.tick");
      }
    });
  }
  tracer.stop();
  registry.disable();

  const auto expected_events =
      static_cast<std::int64_t>(kTasks) * kEventsPerTask;
  EXPECT_EQ(registry.counter("stress.events").value(), expected_events);
  EXPECT_DOUBLE_EQ(registry.gauge("stress.accumulated").value(),
                   static_cast<double>(expected_events));
  EXPECT_DOUBLE_EQ(registry.gauge("stress.peak_task").value(),
                   static_cast<double>(kTasks - 1));

  const obs::HistogramSnapshot hist =
      registry.histogram("stress.values", kBounds).snapshot();
  EXPECT_EQ(hist.count, expected_events);
  // Every task records the same value sequence 0, 8, 16, ..., so the
  // serial expectation is exact.
  double per_task_sum = 0.0;
  for (int i = 0; i < kEventsPerTask; ++i) per_task_sum += i * kThreads;
  EXPECT_DOUBLE_EQ(hist.sum, per_task_sum * static_cast<double>(kTasks));
  EXPECT_DOUBLE_EQ(hist.min, 0.0);
  EXPECT_DOUBLE_EQ(hist.max, (kEventsPerTask - 1) * kThreads);

  // No event was lost: spans pair up and the totals agree with the loop.
  const auto totals = tracer.span_totals();
  EXPECT_EQ(totals.at("stress.task").count, kTasks);
  EXPECT_EQ(totals.at("stress.step").count,
            static_cast<std::uint64_t>(expected_events));

  // The concurrent trace still exports as balanced, per-tid-monotonic JSON.
  const util::JsonValue doc = util::parse_json(tracer.export_chrome_json());
  std::map<int, int> open;
  std::map<int, double> last_ts;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    const int tid = static_cast<int>(e.at("tid").as_number());
    const double ts = e.at("ts").as_number();
    if (last_ts.count(tid)) {
      EXPECT_GE(ts, last_ts[tid]);
    }
    last_ts[tid] = ts;
    const std::string& ph = e.at("ph").as_string();
    if (ph == "B") ++open[tid];
    if (ph == "E") --open[tid];
    EXPECT_GE(open[tid], 0) << "tid " << tid;
  }
  for (const auto& [tid, depth] : open) {
    EXPECT_EQ(depth, 0) << "tid " << tid;
  }
  tracer.clear();
  registry.reset();
}

TEST(ObsStress, ConcurrentRegistrationResolvesToOneInstrument) {
  // First-use registration from many threads at once: everyone must get
  // the same instrument, and the total must account for every add.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.reset();
  registry.enable();
  {
    util::ThreadPool pool(kThreads);
    util::parallel_for(pool, 64, [&](std::size_t i) {
      registry.counter("stress.registration").add(1);
      registry.gauge("stress.reg_gauge").add(1.0);
      static const double kB[] = {1.0};
      registry.histogram("stress.reg_hist", kB)
          .record(static_cast<double>(i % 2));
    });
  }
  registry.disable();
  EXPECT_EQ(registry.counter("stress.registration").value(), 64);
  EXPECT_DOUBLE_EQ(registry.gauge("stress.reg_gauge").value(), 64.0);
  static const double kB[] = {1.0};
  EXPECT_EQ(registry.histogram("stress.reg_hist", kB).snapshot().count, 64);
  registry.reset();
}

TEST(ObsStress, PerThreadHistogramMergeEqualsSerial) {
  // Property behind trustworthy sharded aggregation: merging per-thread
  // histograms reproduces the serial histogram exactly (integer-valued
  // samples, so double addition is rounding-free in any order).
  const std::vector<double> kBounds = {10.0, 100.0, 1000.0};
  constexpr std::size_t kShards = 7;
  constexpr int kSamples = 3000;

  obs::Histogram serial(kBounds);
  // Histograms hold atomics (immovable), so shards live behind pointers.
  std::vector<std::unique_ptr<obs::Histogram>> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    shards.push_back(std::make_unique<obs::Histogram>(kBounds));
  }

  // Deterministic pseudo-random integer stream.
  std::uint64_t state = 12345;
  std::vector<double> values;
  for (int i = 0; i < kSamples; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    values.push_back(static_cast<double>((state >> 33) % 5000));
  }
  for (int i = 0; i < kSamples; ++i) serial.record(values[i]);
  {
    util::ThreadPool pool(kShards);
    util::parallel_for(pool, kShards, [&](std::size_t s) {
      for (int i = static_cast<int>(s); i < kSamples;
           i += static_cast<int>(kShards)) {
        shards[s]->record(values[i]);
      }
    });
  }

  obs::HistogramSnapshot merged = shards[0]->snapshot();
  for (std::size_t s = 1; s < kShards; ++s)
    merged = obs::merge(merged, shards[s]->snapshot());
  const obs::HistogramSnapshot expected = serial.snapshot();
  EXPECT_EQ(merged.counts, expected.counts);
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.sum, expected.sum);  // exact: integer-valued samples
  EXPECT_EQ(merged.min, expected.min);
  EXPECT_EQ(merged.max, expected.max);
}

}  // namespace
}  // namespace autodml
