// Experiment R-P11 — BO inner-loop latency vs. history size.
//
// The tuner's own overhead is dominated by two operations repeated every
// trial: refitting the surrogate on the grown history and scoring the
// acquisition candidate pool. This bench measures both against history size
// n, comparing:
//   (a) the O(n^3) full refactorization against the O(n^2) rank-1
//       incremental update a non-hyperopt round takes (n <= 512);
//   (b) the scalar against the cache-blocked Cholesky factorization on the
//       kernel Gram matrix (all n, up to 4096);
//   (c) the exact GP's per-trial refit against the RFF backend's
//       O(nm + m^3) append — the large-n path SurrogateModel switches to —
//       plus the RFF posterior-mean error vs exact on held-out probes;
//   (d) per-trial hyperopt against the every-k + evidence-triggered refit
//       schedule, at n = 256;
//   (e) serial against thread-pool acquisition scoring (n <= 1024),
//       asserting the parallel proposal is identical to the serial one;
//   (f) GP hyperparameter fitting alone: one GP fitted on n = 3..30 points
//       at d = 19, the sizes a tuning session's hyperopt rounds run at,
//       for both kernels, in fits/s and likelihood evaluations/s (thread
//       CPU time), with the fitted hyperparameters hashed and checked
//       against the hash recorded for the reference implementation.
// Results land in BENCH_inner_loop.json to extend the repo's performance
// trajectory; CI runs `--smoke` and uploads the file as an artifact.
// Non-zero exit when the parallel proposal diverges, the RFF accuracy
// gate fails or a fitted-hyperparameter hash differs from its reference.
//
// Usage: bench_inner_loop [--smoke] [--out=BENCH_inner_loop.json]
//                         [--reps=N] [--threads=K] [--rff-features=M]
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "config/config_space.h"
#include "core/acquisition_optimizer.h"
#include "core/surrogate.h"
#include "core/tuner_types.h"
#include "gp/gp.h"
#include "gp/kernel.h"
#include "gp/rff.h"
#include "math/cholesky.h"
#include "obs/metrics.h"
#include "util/arg_parse.h"
#include "util/fs.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

using namespace autodml;

namespace {

constexpr std::size_t kDim = 6;

/// RFF posterior-mean error gates (mean over 16 held-out probes per size),
/// standardized target units. The bench response is deterministic and the
/// GP noise tiny, so the exact posterior nearly interpolates while the
/// m-feature model carries an irreducible basis-approximation floor:
/// measured per-size means run 0.16-0.69 at m=256 across n=16-4096, flat
/// in n. The gates sit just above that observed band — mean across sizes
/// under 0.55, no single size past 0.9 — because broken spectral math
/// (wrong measure, sign flip, bad solve) diverges by multiple std units
/// at every size, while the legitimate floor only brushes the per-size
/// cap on unlucky probe draws.
constexpr double kRffMeanErrGate = 0.55;
constexpr double kRffSizeErrGate = 0.9;

std::string param_name(std::size_t d) {
  std::string name = "p";
  name += std::to_string(d);
  return name;
}

conf::ConfigSpace make_space() {
  conf::ConfigSpace space;
  for (std::size_t d = 0; d < kDim; ++d) {
    space.add(conf::ParamSpec::continuous(param_name(d), 0.0, 1.0));
  }
  return space;
}

/// Smooth deterministic response over the unit cube (positive: the
/// surrogate trains on its log).
double response(const conf::Config& config) {
  double v = 10.0;
  for (std::size_t d = 0; d < kDim; ++d) {
    const double x = config.get_double(param_name(d));
    v += 3.0 * std::sin(2.0 * (static_cast<double>(d) + 1.0) * x) + 4.0 * x;
  }
  return v;
}

std::vector<core::Trial> make_history(const conf::ConfigSpace& space,
                                      std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::Trial> history;
  history.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::Trial t;
    t.config = space.sample_uniform(rng);
    t.outcome.feasible = true;
    t.outcome.objective = response(t.config);
    t.outcome.spent_seconds = 5.0 + t.outcome.objective;
    history.push_back(std::move(t));
  }
  return history;
}

/// Surrogate options with hyperopt disabled: the comparison is pure
/// factorization-vs-append, exactly the non-hyperopt rounds the tuner runs
/// between hyperparameter refits.
core::SurrogateOptions fixed_hyper_options() {
  core::SurrogateOptions options;
  options.hyperopt_every = 1 << 20;
  options.refit_nlml_degradation = 0.0;
  options.backend = core::SurrogateBackend::kExact;
  options.gp.optimize_hyperparams = false;
  return options;
}

double mean_ms(const std::vector<double>& ms) {
  return ms.empty() ? 0.0
                    : std::accumulate(ms.begin(), ms.end(), 0.0) /
                          static_cast<double>(ms.size());
}

struct SizeResult {
  std::size_t n = 0;
  // Exact surrogate full-vs-incremental and proposal columns (legacy,
  // gated to the sizes where the O(n^3) cold path stays affordable).
  bool legacy_measured = false;
  double surrogate_full_ms = 0.0;
  double surrogate_incr_ms = 0.0;
  bool propose_measured = false;
  double propose_serial_ms = 0.0;
  double propose_parallel_ms = 0.0;
  bool propose_identical = true;
  // Exact GP refit vs rank-1 append (all sizes).
  double gp_refit_ms = 0.0;
  double gp_append_ms = 0.0;
  // Scalar vs blocked Cholesky on the kernel Gram matrix (all sizes).
  double chol_scalar_ms = 0.0;
  double chol_blocked_ms = 0.0;
  double chol_max_diff = 0.0;
  // RFF backend: full feature solve, per-trial append, accuracy vs exact.
  double rff_fit_ms = 0.0;
  double rff_append_ms = 0.0;
  double rff_mean_err_std = 0.0;
};

SizeResult measure(std::size_t n, int reps, int candidates, int rff_features,
                   util::ThreadPool& pool) {
  const conf::ConfigSpace space = make_space();
  const std::vector<core::Trial> history =
      make_history(space, n + static_cast<std::size_t>(reps), 1000 + n);
  SizeResult out;
  out.n = n;
  // Past 512 the O(n^3)-per-rep sections drop to one repetition so the
  // 4096 row finishes in minutes, not hours.
  const int cubic_reps = n > 512 ? 1 : reps;

  math::Matrix x(n, kDim);
  math::Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const math::Vec e = space.encode(history[i].config);
    std::copy(e.begin(), e.end(), x.row(i).begin());
    y[i] = std::log(history[i].outcome.objective);
  }

  // ---- surrogate update: incremental (warm cache) vs full (cold model) ----
  if (n <= 512) {
    out.legacy_measured = true;
    core::SurrogateModel warm(space, fixed_hyper_options(), 1);
    warm.update(std::span(history).subspan(0, n));
    std::vector<double> incr_ms, full_ms;
    for (int r = 0; r < reps; ++r) {
      const auto span =
          std::span(history).subspan(0, n + static_cast<std::size_t>(r) + 1);
      util::Stopwatch watch;
      warm.update(span);  // extends the previous set by exactly one trial
      incr_ms.push_back(watch.elapsed_ms());

      core::SurrogateModel cold(space, fixed_hyper_options(), 1);
      watch.reset();
      cold.update(span);  // what every trial cost before the rank-1 path
      full_ms.push_back(watch.elapsed_ms());
    }
    out.surrogate_incr_ms = mean_ms(incr_ms);
    out.surrogate_full_ms = mean_ms(full_ms);
  }

  // ---- raw GP: refit vs append_observation ----
  {
    gp::GpOptions gp_options;
    gp_options.optimize_hyperparams = false;
    gp::GaussianProcess base(std::make_unique<gp::Matern52Ard>(kDim),
                             gp_options);
    base.refit(x, y);
    const math::Vec x_new = space.encode(history[n].config);
    const double y_new = std::log(history[n].outcome.objective);

    math::Matrix x_ext(n + 1, kDim);
    std::copy(x.data().begin(), x.data().end(), x_ext.data().begin());
    std::copy(x_new.begin(), x_new.end(), x_ext.row(n).begin());
    math::Vec y_ext = y;
    y_ext.push_back(y_new);

    std::vector<double> refit_ms, append_ms;
    for (int r = 0; r < cubic_reps; ++r) {
      gp::GaussianProcess copy(base);  // copy outside the timed region
      util::Stopwatch watch;
      const bool fast = copy.append_observation(x_new, y_new);
      append_ms.push_back(watch.elapsed_ms());
      if (!fast) std::cerr << "warning: append fell back to full refit\n";

      watch.reset();
      base.refit(x_ext, y_ext);
      refit_ms.push_back(watch.elapsed_ms());
      // Restore size n for the next rep (untimed O(n^3) side effect).
      if (r + 1 < cubic_reps) base.refit(x, y);
    }
    out.gp_append_ms = mean_ms(append_ms);
    out.gp_refit_ms = mean_ms(refit_ms);
  }

  // ---- Cholesky: scalar vs blocked on the jittered kernel Gram ----
  {
    gp::Matern52Ard kernel(kDim);
    math::Matrix gram(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        const double v = kernel.eval(x.row(i), x.row(j));
        gram(i, j) = v;
        gram(j, i) = v;
      }
      gram(i, i) += 1e-2;
    }
    std::vector<double> scalar_ms, blocked_ms;
    std::optional<math::CholeskyFactor> fs, fb;
    for (int r = 0; r < cubic_reps; ++r) {
      util::Stopwatch watch;
      fs = math::cholesky_scalar(gram);
      scalar_ms.push_back(watch.elapsed_ms());
      watch.reset();
      fb = math::cholesky_blocked(gram);
      blocked_ms.push_back(watch.elapsed_ms());
    }
    out.chol_scalar_ms = mean_ms(scalar_ms);
    out.chol_blocked_ms = mean_ms(blocked_ms);
    if (!fs || !fb) {
      std::cerr << "FAIL: Gram matrix not PD at n=" << n << "\n";
      out.chol_max_diff = 1e300;
    } else {
      out.chol_max_diff = math::Matrix::max_abs_diff(fs->lower, fb->lower);
    }
  }

  // ---- RFF backend: feature solve, per-trial append, accuracy ----
  {
    gp::RffOptions rff_options;
    rff_options.num_features = rff_features;
    rff_options.gp.optimize_hyperparams = false;
    gp::RffRegressor rff(std::make_unique<gp::Matern52Ard>(kDim), rff_options,
                         42);
    std::vector<double> fit_ms;
    for (int r = 0; r < reps; ++r) {
      util::Stopwatch watch;
      rff.refit(x, y);
      fit_ms.push_back(watch.elapsed_ms());
    }
    out.rff_fit_ms = mean_ms(fit_ms);

    // Accuracy vs the exact GP at the same (default) hyperparameters,
    // before the appends below mutate the model: held-out probes, error in
    // standardized target units.
    {
      gp::GpOptions gp_options;
      gp_options.optimize_hyperparams = false;
      gp::GaussianProcess exact(std::make_unique<gp::Matern52Ard>(kDim),
                                gp_options);
      exact.refit(x, y);
      const double sd = util::stddev(y);
      const double y_scale = sd > 1e-12 ? sd : 1.0;
      util::Rng probe_rng(7);
      double err_sum = 0.0;
      constexpr int kProbes = 16;
      for (int p = 0; p < kProbes; ++p) {
        math::Vec probe(kDim);
        for (std::size_t d = 0; d < kDim; ++d) probe[d] = probe_rng.uniform();
        err_sum += std::abs(rff.predict(probe).mean -
                            exact.predict(probe).mean) /
                   y_scale;
      }
      out.rff_mean_err_std = err_sum / kProbes;
    }

    std::vector<double> append_ms;
    for (int r = 0; r < reps; ++r) {
      const math::Vec x_new =
          space.encode(history[n + static_cast<std::size_t>(r)].config);
      const double y_new = std::log(
          history[n + static_cast<std::size_t>(r)].outcome.objective);
      util::Stopwatch watch;
      rff.append_observation(x_new, y_new);
      append_ms.push_back(watch.elapsed_ms());
    }
    out.rff_append_ms = mean_ms(append_ms);
  }

  // ---- acquisition proposal: serial vs pooled, identical winner ----
  if (n <= 1024) {
    out.propose_measured = true;
    core::SurrogateModel model(space, fixed_hyper_options(), 1);
    const auto span = std::span(history).subspan(0, n);
    model.update(span);
    core::AcqOptimizerOptions serial_options;
    serial_options.random_candidates = candidates;
    core::AcqOptimizerOptions pooled_options = serial_options;
    pooled_options.pool = &pool;

    std::vector<double> serial_ms, parallel_ms;
    for (int r = 0; r < reps; ++r) {
      util::Rng rng_a(77 + r), rng_b(77 + r);
      util::Stopwatch watch;
      const auto a = core::propose_candidate(
          model, core::AcquisitionKind::kLogEi, span, rng_a, serial_options);
      serial_ms.push_back(watch.elapsed_ms());
      watch.reset();
      const auto b = core::propose_candidate(
          model, core::AcquisitionKind::kLogEi, span, rng_b, pooled_options);
      parallel_ms.push_back(watch.elapsed_ms());
      if (!a || !b || !(*a == *b)) out.propose_identical = false;
    }
    out.propose_serial_ms = mean_ms(serial_ms);
    out.propose_parallel_ms = mean_ms(parallel_ms);
  }
  return out;
}

/// Wall-clock of 6 consecutive one-trial surrogate updates at n = 256 under
/// a refit schedule: per-trial hyperopt (the old default) vs every-8 with
/// the evidence trigger armed. Hyperopt budget is trimmed so the baseline
/// finishes; both policies share it.
double measure_policy_ms(const conf::ConfigSpace& space,
                         const std::vector<core::Trial>& history,
                         bool scheduled) {
  core::SurrogateOptions options;
  options.backend = core::SurrogateBackend::kExact;
  options.gp.optimize_hyperparams = true;
  options.gp.restarts = 0;
  options.gp.adam_iterations = 30;
  options.gp.polish_iterations = 0;
  if (scheduled) {
    options.hyperopt_every = 8;
    options.refit_nlml_degradation = 0.25;
  } else {
    options.hyperopt_every = 1;
  }
  core::SurrogateModel model(space, options, 1);
  model.update(std::span(history).subspan(0, 256));  // warmup, untimed
  util::Stopwatch watch;
  for (std::size_t r = 0; r < 6; ++r) {
    model.update(std::span(history).subspan(0, 257 + r));
  }
  return watch.elapsed_ms();
}

// ---- (f) hyperparameter fitting alone ----

constexpr std::size_t kLmlDim = 19;
constexpr std::size_t kLmlMaxN = 30;

/// FNV-1a over the bit patterns of every fitted hyperparameter (kernel
/// log-hypers, then the noise variance) after each fit of the sequence,
/// recorded with a per-pair likelihood evaluation (one kernel call per
/// training pair, bitwise equal to the two-pass reference formula) on
/// x86-64 with glibc libm and -ffp-contract=off. Any implementation of
/// the likelihood must reproduce it bit for bit.
constexpr std::uint64_t kLmlReferenceHashSe = 0x4e398a21f96e3249ull;
constexpr std::uint64_t kLmlReferenceHashMatern = 0x5b527e7c9dd015b0ull;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

void fnv_mix(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (bits >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}

struct FitSequenceResult {
  std::string kernel;
  std::uint64_t hash = 0;
  std::uint64_t reference_hash = 0;
  std::int64_t lml_evals = 0;
  double cpu_ms = 0.0;  // median over reps, whole sequence
  double fits_per_s = 0.0;
  double lml_evals_per_s = 0.0;
};

/// One GP refitted with hyperopt at every n = 3..kLmlMaxN on a smooth
/// response with noise, one rng stream across the sequence (as a tuning
/// session draws it). Returns the hash of the fitted hyperparameters.
template <typename K>
std::uint64_t run_lml_sequence(const math::Matrix& x, const math::Vec& y) {
  gp::GaussianProcess model(std::make_unique<K>(kLmlDim));
  util::Rng rng(7);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t n = 3; n <= kLmlMaxN; ++n) {
    math::Matrix xn(n, kLmlDim);
    std::copy(x.data().begin(), x.data().begin() + n * kLmlDim,
              xn.data().begin());
    model.fit(xn, std::span(y).subspan(0, n), rng);
    for (double v : model.kernel().hyperparams()) fnv_mix(hash, v);
    fnv_mix(hash, model.noise_variance());
  }
  return hash;
}

template <typename K>
FitSequenceResult measure_lml(const char* name, std::uint64_t reference,
                              int reps) {
  util::Rng data_rng(4242);
  math::Matrix x(kLmlMaxN, kLmlDim);
  math::Vec y(kLmlMaxN);
  for (std::size_t i = 0; i < kLmlMaxN; ++i) {
    double v = 0.0;
    for (std::size_t d = 0; d < kLmlDim; ++d) {
      x(i, d) = data_rng.uniform();
      v += std::sin(3.0 * x(i, d) + static_cast<double>(d)) /
           static_cast<double>(d + 1);
    }
    y[i] = v + 0.05 * data_rng.normal();
  }
  FitSequenceResult out;
  out.kernel = name;
  out.reference_hash = reference;
  // Count the likelihood evaluations once, outside the timed runs: the
  // sequence is deterministic, and an attached registry costs a lookup
  // per evaluation.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  obs::Counter& evals = registry.counter("gp.lml_evals");
  const std::int64_t before = evals.value();
  registry.enable();
  out.hash = run_lml_sequence<K>(x, y);
  registry.disable();
  out.lml_evals = evals.value() - before;
  std::vector<double> cpu_ms;
  for (int r = 0; r < reps; ++r) {
    const double start = thread_cpu_seconds();
    if (run_lml_sequence<K>(x, y) != out.hash) out.hash = 0;  // unstable
    cpu_ms.push_back(1e3 * (thread_cpu_seconds() - start));
  }
  std::sort(cpu_ms.begin(), cpu_ms.end());
  out.cpu_ms = cpu_ms[cpu_ms.size() / 2];
  const double fits = static_cast<double>(kLmlMaxN - 2);
  out.fits_per_s = 1e3 * fits / out.cpu_ms;
  out.lml_evals_per_s = 1e3 * static_cast<double>(out.lml_evals) / out.cpu_ms;
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Runs section (f) for both kernels; false when a hash differs from its
/// reference.
bool lml_section(int reps, util::JsonObject& doc) {
  const std::vector<FitSequenceResult> results = {
      measure_lml<gp::SquaredExponentialArd>("se_ard", kLmlReferenceHashSe,
                                             reps),
      measure_lml<gp::Matern52Ard>("matern52_ard", kLmlReferenceHashMatern,
                                   reps)};
  bool ok = true;
  util::JsonArray rows;
  std::cout << "\n=== hyperparameter fits, n = 3.." << kLmlMaxN
            << " at d = " << kLmlDim << " (reps=" << reps
            << ", median thread CPU) ===\n";
  for (const FitSequenceResult& r : results) {
    const bool match = r.hash == r.reference_hash;
    ok = ok && match;
    std::cout << r.kernel << ": " << util::fmt(r.cpu_ms, 4) << " ms, "
              << util::fmt(r.fits_per_s, 4) << " fits/s, "
              << util::fmt(r.lml_evals_per_s, 4) << " LML evals/s ("
              << r.lml_evals << " evals), hash " << hex64(r.hash)
              << (match ? " matches" : " DIFFERS from") << " reference "
              << hex64(r.reference_hash) << "\n";
    util::JsonObject row;
    row["kernel"] = r.kernel;
    row["cpu_ms"] = r.cpu_ms;
    row["fits_per_s"] = r.fits_per_s;
    row["lml_evals"] = static_cast<double>(r.lml_evals);
    row["lml_evals_per_s"] = r.lml_evals_per_s;
    row["hash"] = hex64(r.hash);
    row["hash_matches_reference"] = match;
    rows.push_back(util::JsonValue(std::move(row)));
  }
  util::JsonObject section;
  section["dim"] = static_cast<double>(kLmlDim);
  section["n_max"] = static_cast<double>(kLmlMaxN);
  section["reps"] = reps;
  section["kernels"] = util::JsonValue(std::move(rows));
  doc["lml"] = util::JsonValue(std::move(section));
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const bool smoke = args.get_bool("smoke", false) || args.has("smoke");
  const int reps = static_cast<int>(args.get_int("reps", smoke ? 3 : 8));
  const int candidates =
      static_cast<int>(args.get_int("candidates", smoke ? 256 : 512));
  const int rff_features =
      static_cast<int>(args.get_int("rff-features", 256));
  const std::size_t threads = static_cast<std::size_t>(args.get_int(
      "threads",
      std::max(2u, std::thread::hardware_concurrency())));
  const std::string out_path = args.get("out", "BENCH_inner_loop.json");

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{16, 64, 256}
            : std::vector<std::size_t>{16, 32,  64,   128,  256,
                                       512, 1024, 2048, 4096};

  util::ThreadPool pool(threads);
  bool all_identical = true;
  bool accuracy_ok = true;
  double err_sum = 0.0;
  util::JsonArray rows;
  std::vector<std::vector<std::string>> table;
  for (std::size_t n : sizes) {
    const SizeResult r = measure(n, reps, candidates, rff_features, pool);
    all_identical = all_identical && r.propose_identical;
    err_sum += r.rff_mean_err_std;
    if (r.rff_mean_err_std > kRffSizeErrGate) accuracy_ok = false;
    const double surrogate_speedup =
        r.surrogate_incr_ms > 0.0 ? r.surrogate_full_ms / r.surrogate_incr_ms
                                  : 0.0;
    const double gp_speedup =
        r.gp_append_ms > 0.0 ? r.gp_refit_ms / r.gp_append_ms : 0.0;
    const double chol_speedup =
        r.chol_blocked_ms > 0.0 ? r.chol_scalar_ms / r.chol_blocked_ms : 0.0;
    // Per-trial refit cost if hyperparameters must be re-applied: exact
    // O(n^3) refactorization vs the RFF backend's O(nm + m^3) append.
    const double rff_refit_speedup =
        r.rff_append_ms > 0.0 ? r.gp_refit_ms / r.rff_append_ms : 0.0;
    util::JsonObject row;
    row["n"] = static_cast<double>(r.n);
    if (r.legacy_measured) {
      row["surrogate_full_ms"] = r.surrogate_full_ms;
      row["surrogate_incremental_ms"] = r.surrogate_incr_ms;
      row["surrogate_speedup"] = surrogate_speedup;
    }
    row["gp_refit_ms"] = r.gp_refit_ms;
    row["gp_append_ms"] = r.gp_append_ms;
    row["gp_speedup"] = gp_speedup;
    row["chol_scalar_ms"] = r.chol_scalar_ms;
    row["chol_blocked_ms"] = r.chol_blocked_ms;
    row["chol_speedup"] = chol_speedup;
    row["chol_max_diff"] = r.chol_max_diff;
    row["rff_fit_ms"] = r.rff_fit_ms;
    row["rff_append_ms"] = r.rff_append_ms;
    row["rff_refit_speedup"] = rff_refit_speedup;
    row["rff_mean_err_std"] = r.rff_mean_err_std;
    if (r.propose_measured) {
      row["propose_serial_ms"] = r.propose_serial_ms;
      row["propose_parallel_ms"] = r.propose_parallel_ms;
      row["propose_identical"] = r.propose_identical;
    }
    rows.push_back(util::JsonValue(std::move(row)));
    table.push_back({std::to_string(n),
                     util::fmt(r.gp_refit_ms, 3),
                     util::fmt(r.gp_append_ms, 3),
                     util::fmt(gp_speedup, 3),
                     util::fmt(r.chol_scalar_ms, 3),
                     util::fmt(r.chol_blocked_ms, 3),
                     util::fmt(chol_speedup, 3),
                     util::fmt(r.rff_append_ms, 3),
                     util::fmt(rff_refit_speedup, 3),
                     util::fmt(r.rff_mean_err_std, 3),
                     r.propose_measured
                         ? (r.propose_identical ? "yes" : "NO")
                         : "-"});
  }

  // Refit-schedule policy comparison at n = 256 (see measure_policy_ms).
  const conf::ConfigSpace policy_space = make_space();
  const std::vector<core::Trial> policy_history =
      make_history(policy_space, 262, 9000);
  const double policy_per_trial_ms =
      measure_policy_ms(policy_space, policy_history, /*scheduled=*/false);
  const double policy_scheduled_ms =
      measure_policy_ms(policy_space, policy_history, /*scheduled=*/true);
  const double policy_speedup = policy_scheduled_ms > 0.0
                                    ? policy_per_trial_ms / policy_scheduled_ms
                                    : 0.0;

  const std::vector<std::string> header = {
      "n",        "gp_full_ms", "gp_incr_ms", "gp_x",
      "chol_scalar_ms", "chol_blocked_ms", "chol_x",
      "rff_incr_ms", "rff_x", "rff_err_std", "identical"};
  std::cout << "\n=== R-P11: BO inner-loop latency (reps=" << reps
            << ", threads=" << threads << ", candidates=" << candidates
            << ", rff_features=" << rff_features << ") ===\n"
            << util::render_table(header, table);
  std::cout << "csv," << util::join(header, ",") << "\n";
  for (const auto& row : table)
    std::cout << "csv," << util::join(row, ",") << "\n";
  std::cout << "refit schedule at n=256, 6 trials: per-trial hyperopt "
            << util::fmt(policy_per_trial_ms, 4) << " ms, every-8+evidence "
            << util::fmt(policy_scheduled_ms, 4) << " ms ("
            << util::fmt(policy_speedup, 3) << "x)\n";

  util::JsonObject doc;
  const bool lml_ok = lml_section(reps, doc);
  doc["bench"] = "inner_loop";
  doc["smoke"] = smoke;
  doc["reps"] = reps;
  doc["acq_threads"] = static_cast<double>(threads);
  doc["candidates"] = candidates;
  doc["rff_features"] = rff_features;
  doc["policy_per_trial_hyperopt_ms"] = policy_per_trial_ms;
  doc["policy_scheduled_refit_ms"] = policy_scheduled_ms;
  doc["policy_speedup"] = policy_speedup;
  doc["sizes"] = util::JsonValue(std::move(rows));
  util::write_file_atomic(out_path, util::dump_json(util::JsonValue(std::move(doc)), 2) + "\n");
  std::cout << "wrote " << out_path << "\n";

  if (!all_identical) {
    std::cerr << "FAIL: parallel proposal diverged from serial\n";
    return 1;
  }
  const double err_mean = err_sum / static_cast<double>(sizes.size());
  if (err_mean > kRffMeanErrGate) accuracy_ok = false;
  if (!accuracy_ok) {
    std::cerr << "FAIL: RFF posterior mean error out of tolerance (mean "
              << err_mean << " vs " << kRffMeanErrGate
              << " std units, per-size cap " << kRffSizeErrGate << ")\n";
    return 1;
  }
  if (!lml_ok) {
    std::cerr << "FAIL: fitted hyperparameters differ from the reference\n";
    return 1;
  }
  return 0;
}
