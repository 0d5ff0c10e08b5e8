#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "util/arg_parse.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace autodml::util {
namespace {

// ---- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanHalf) {
  Rng rng(7);
  double acc = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntThrowsOnInvertedRange) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, UniformIntApproximatelyUniform) {
  Rng rng(11);
  std::array<int, 5> counts{};
  const int n = 50000;
  for (int i = 0; i < n; ++i) counts[rng.uniform_int(0, 4)]++;
  for (int c : counts) EXPECT_NEAR(c, n / 5.0, n * 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(5);
  const int n = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParams) {
  Rng rng(5);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, LognormalMedianIsMedian) {
  Rng rng(9);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(rng.lognormal_median(2.0, 0.4));
  EXPECT_NEAR(median(xs), 2.0, 0.05);
  for (double x : xs) EXPECT_GT(x, 0.0);
}

TEST(Rng, LognormalRejectsNonPositiveMedian) {
  Rng rng(1);
  EXPECT_THROW(rng.lognormal_median(0.0, 0.5), std::invalid_argument);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double acc = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) acc += rng.exponential(2.0);
  EXPECT_NEAR(acc / n, 0.5, 0.02);
}

TEST(Rng, ExponentialRejectsBadRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, IndexThrowsOnZero) {
  Rng rng(1);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(31);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  // Distinct streams from successive splits.
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += child1.next_u64() == child2.next_u64();
  EXPECT_LT(equal, 4);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(31), b(31);
  Rng ca = a.split(), cb = b.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
}

// ---- stats ------------------------------------------------------------------

TEST(Stats, MeanAndVariance) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(variance(xs), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{2.0}), 0.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{3.0, 1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_THROW(quantile(std::vector<double>{}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile(xs, 1.5), std::invalid_argument);
}

TEST(Stats, SummaryFields) {
  const std::vector<double> xs{2.0, 4.0, 6.0, 8.0, 10.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 6.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_DOUBLE_EQ(s.median, 6.0);
  EXPECT_DOUBLE_EQ(s.p25, 4.0);
  EXPECT_DOUBLE_EQ(s.p75, 8.0);
}

TEST(Stats, BootstrapCiContainsTruthForGaussian) {
  Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal(5.0, 1.0));
  Rng boot(8);
  const BootstrapCI ci = bootstrap_mean_ci(xs, 0.95, 1000, boot);
  EXPECT_LT(ci.lo, 5.0);
  EXPECT_GT(ci.hi, 5.0);
  EXPECT_LT(ci.lo, ci.point);
  EXPECT_GT(ci.hi, ci.point);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg{8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantIsZero) {
  const std::vector<double> xs{1, 1, 1};
  const std::vector<double> ys{2, 4, 6};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, SpearmanMonotone) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{1, 8, 27, 64, 125};  // monotone, nonlinear
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
}

TEST(Stats, SpearmanHandlesTies) {
  const std::vector<double> xs{1, 2, 2, 3};
  const std::vector<double> ys{1, 2, 2, 3};
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
}

TEST(Stats, Geomean) {
  const std::vector<double> xs{1.0, 4.0, 16.0};
  EXPECT_NEAR(geomean(xs), 4.0, 1e-12);
  EXPECT_THROW(geomean(std::vector<double>{1.0, -1.0}), std::invalid_argument);
}

// ---- string_util -------------------------------------------------------------

TEST(StringUtil, SplitBasic) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtil, JoinInvertsSplit) {
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(StringUtil, Padding) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_right("abcd", 2), "abcd");  // no truncation
}

TEST(StringUtil, FmtPrecision) {
  EXPECT_EQ(fmt(1.0 / 3.0, 3), "0.333");
}

TEST(StringUtil, RenderTableAligns) {
  const auto table = render_table({"name", "v"}, {{"x", "10"}, {"longer", "2"}});
  EXPECT_NE(table.find("name"), std::string::npos);
  EXPECT_NE(table.find("longer"), std::string::npos);
  // Every line has the same prefix width for the first column.
  EXPECT_NE(table.find("x     "), std::string::npos);
}

// ---- arg_parse ----------------------------------------------------------------

TEST(ArgParse, ParsesValuesAndFlags) {
  const char* argv[] = {"prog", "--x=3", "--name=abc", "--flag", "positional"};
  const ArgParser args(5, argv);
  EXPECT_TRUE(args.has("x"));
  EXPECT_EQ(args.get_int("x", 0), 3);
  EXPECT_EQ(args.get("name", ""), "abc");
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_FALSE(args.has("positional"));
  EXPECT_EQ(args.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
}

TEST(ArgParse, BoolSpellings) {
  const char* argv[] = {"prog", "--a=TRUE", "--b=0", "--c=on", "--d=no"};
  const ArgParser args(5, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

// ---- thread_pool ----------------------------------------------------------------

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  parallel_for(pool, 100, [&](std::size_t) { counter++; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

// The remaining ThreadPool tests exist mainly for the TSan leg of
// scripts/check.sh: they drive the pool from many client threads at once
// so the sanitizer sees the submit/worker/shutdown interleavings.

TEST(ThreadPool, ConcurrentSubmittersFromManyThreads) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> clients;
  std::vector<std::future<int>> futures[8];  // one slot per client thread
  clients.reserve(8);
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&pool, &counter, &futures, t] {
      for (int i = 0; i < 50; ++i) {
        auto f = pool.submit([&counter, i] {
          counter++;
          return i;
        });
        futures[t].push_back(std::move(f));
      }
    });
  }
  for (auto& c : clients) c.join();
  int sum = 0;
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) sum += f.get();
  }
  EXPECT_EQ(counter.load(), 8 * 50);
  EXPECT_EQ(sum, 8 * (49 * 50 / 2));
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      (void)pool.submit([&completed] { completed++; });
    }
    // Destructor must wait for every queued task, not just running ones.
  }
  EXPECT_EQ(completed.load(), 64);
}

TEST(ThreadPool, SubmitAfterWorkCompletesStillRuns) {
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> counter{0};
    parallel_for(pool, 20, [&](std::size_t) { counter++; });
    EXPECT_EQ(counter.load(), 20);
  }
}

}  // namespace
}  // namespace autodml::util
