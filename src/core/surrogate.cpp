#include "core/surrogate.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "gp/rff.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/chaos.h"
#include "util/log.h"

namespace autodml::core {

namespace {

/// Graceful degradation: when a backend fit throws (non-PD Gram after the
/// Cholesky jitter ladder is exhausted, NaN in hyperopt), the model set is
/// rebuilt from scratch with the noise floor raised by this factor, up to
/// kMaxNoiseEscalations times, before the surrogate enters degraded mode
/// (ready() == false until a later update fits).
constexpr double kNoiseEscalationFactor = 100.0;
constexpr int kMaxNoiseEscalations = 2;

std::unique_ptr<gp::GaussianProcess> make_gp(std::size_t dim,
                                             const gp::GpOptions& options) {
  return std::make_unique<gp::GaussianProcess>(
      std::make_unique<gp::Matern52Ard>(dim), options);
}

std::unique_ptr<gp::RffRegressor> make_rff(std::size_t dim,
                                           const SurrogateOptions& options,
                                           std::uint64_t feature_seed) {
  gp::RffOptions rff;
  rff.num_features = options.rff_features;
  rff.gp = options.gp;
  return std::make_unique<gp::RffRegressor>(
      std::make_unique<gp::Matern52Ard>(dim), rff, feature_seed);
}

}  // namespace

SurrogateModel::SurrogateModel(const conf::ConfigSpace& space,
                               SurrogateOptions options, std::uint64_t seed,
                               bool fit_cost_model)
    : space_(&space),
      options_(options),
      rng_(seed),
      seed_(seed),
      fit_cost_model_(fit_cost_model) {}

void SurrogateModel::update(std::span<const Trial> trials) {
  ADML_SPAN("surrogate.update");
  ADML_COUNT("surrogate.updates", 1);
  std::vector<math::Vec> ok_x, all_x, cost_x;
  std::vector<double> ok_y, feas_y, cost_y;
  std::vector<double> real_y;  // completed runs only: defines the incumbent
  for (const Trial& t : trials) {
    const math::Vec x = space_->encode(t.config);
    if (t.fantasized) {
      // Kriging-believer fantasy for a pending evaluation: a belief about
      // the objective, not an observation. It conditions the objective
      // posterior so batch proposals repel each other, but a fabricated
      // `feasible = true` label or zero-cost sample would corrupt the
      // feasibility and cost models (and a posterior mean below the best
      // real run would fake an incumbent), so everything else skips it.
      if (std::isfinite(t.outcome.objective)) {
        ok_x.push_back(x);
        ok_y.push_back(std::log(std::max(t.outcome.objective, 1e-9)));
      }
      continue;
    }
    // Transient failures (preemption, infra crash) say nothing about the
    // configuration — training on them would carve phantom infeasible
    // regions out of the search space, so they are excluded here.
    if (!t.outcome.transient_failure()) {
      all_x.push_back(x);
      feas_y.push_back(t.outcome.feasible ? 0.0 : 1.0);
    }
    if (t.succeeded()) {
      ok_x.push_back(x);
      ok_y.push_back(std::log(std::max(t.outcome.objective, 1e-9)));
      real_y.push_back(ok_y.back());
    } else if (t.outcome.aborted &&
               std::isfinite(t.outcome.projected_objective)) {
      // Censored pseudo-observation: the early-termination projection of
      // where the killed run was heading. Without this, aborted trials
      // teach the objective model nothing and the tuner re-proposes near
      // them.
      ok_x.push_back(x);
      ok_y.push_back(std::log(std::max(t.outcome.projected_objective, 1e-9)));
    }
    if (!t.outcome.aborted && t.outcome.spent_seconds > 0.0) {
      cost_x.push_back(x);
      cost_y.push_back(std::log(t.outcome.spent_seconds));
    }
  }

  const double failures =
      std::count(feas_y.begin(), feas_y.end(), 1.0);
  feasible_fraction_ =
      feas_y.empty() ? 1.0
                     : 1.0 - failures / static_cast<double>(feas_y.size());

  // Refit scheduling: a full hyperparameter optimization runs every
  // hyperopt_every updates (and always on the first fit of a model);
  // between rounds the evidence trigger below can force one early.
  ++updates_since_hyperopt_;
  const bool first_fit = !objective_gp_ || !objective_gp_->is_fitted();
  bool full_hyperopt =
      first_fit ||
      updates_since_hyperopt_ >= std::max(1, options_.hyperopt_every);

  // Chaos seam: an armed "surrogate.refit" fault makes every fit attempt
  // of this update throw, driving the escalation ladder deterministically.
  const bool injected_fault = util::chaos::fault_requested("surrogate.refit");

  // The complete (re)fit flow, evidence-based trigger included. Any
  // backend failure (non-PD Gram past the jitter ladder, NaN hyperopt)
  // surfaces here as an exception.
  const auto run_fits = [&] {
    if (injected_fault) {
      throw std::runtime_error("surrogate: injected refit fault");
    }
    fit_or_append(objective_gp_, objective_cache_, ok_x, ok_y, full_hyperopt,
                  /*role_salt=*/0);
    fit_or_append(cost_gp_, cost_cache_, cost_x, cost_y, full_hyperopt,
                  /*role_salt=*/1, fit_cost_model_);
    // Feasibility model only earns its keep once failures exist; a constant
    // label vector would just burn a GP fit.
    if (failures > 0 && feas_y.size() >= 3) {
      fit_or_append(feasibility_gp_, feasibility_cache_, all_x, feas_y,
                    full_hyperopt, /*role_salt=*/2);
    } else {
      feasibility_gp_.reset();
      feasibility_cache_ = {};
    }
    // Evidence-based trigger: the per-point negative LML is memoized state
    // the incremental paths keep current, so this costs O(1). When stale
    // hyperparameters stop explaining the growing data set — degradation
    // beyond the configured budget in nats/point — a full hyperopt runs
    // now instead of waiting out the schedule.
    if (!full_hyperopt && options_.refit_nlml_degradation > 0.0 &&
        baseline_valid_ && objective_gp_ && objective_gp_->is_fitted()) {
      const double nlml_per_point =
          -objective_gp_->log_marginal_likelihood() /
          static_cast<double>(objective_gp_->num_points());
      if (nlml_per_point - baseline_nlml_per_point_ >
          options_.refit_nlml_degradation) {
        ADML_COUNT("surrogate.refit_evidence", 1);
        full_hyperopt = true;
        fit_or_append(objective_gp_, objective_cache_, ok_x, ok_y, true, 0);
        fit_or_append(cost_gp_, cost_cache_, cost_x, cost_y, true, 1,
                      fit_cost_model_);
        if (feasibility_gp_) {
          fit_or_append(feasibility_gp_, feasibility_cache_, all_x, feas_y,
                        true, 2);
        }
      }
    }
  };

  // Degradation ladder: a failed fit discards the (suspect) model set and
  // retries from scratch with the noise floor raised — more observation
  // noise absorbs the numerical pathology that broke the factorization.
  // When every escalation fails too, the surrogate parks in degraded mode
  // rather than taking the tuner down; the next update() tries again.
  bool fitted = false;
  constexpr int max_attempts = 1 + kMaxNoiseEscalations;
  for (int attempt = 0; attempt < max_attempts && !fitted; ++attempt) {
    try {
      run_fits();
      fitted = true;
    } catch (const std::exception& e) {
      drop_models();
      full_hyperopt = true;
      ADML_WARN << "surrogate: fit attempt " << attempt + 1 << "/"
                << max_attempts << " failed (" << e.what() << ")";
      if (attempt + 1 < max_attempts) {
        ADML_COUNT("surrogate.jitter_escalations", 1);
        options_.gp.initial_noise =
            std::min(options_.gp.noise_hi,
                     options_.gp.initial_noise * kNoiseEscalationFactor);
        options_.gp.noise_lo =
            std::min(options_.gp.noise_hi,
                     options_.gp.noise_lo * kNoiseEscalationFactor);
      }
    }
  }

  // Degraded-mode transitions only: these must never touch the metrics
  // snapshot of a healthy run (the golden-run harness diffs it).
  if (!fitted && !degraded_) {
    degraded_ = true;
    ADML_COUNT("surrogate.degraded_entries", 1);
    ADML_GAUGE_SET("tuner.degraded_mode", 1);
    ADML_WARN << "surrogate: entering degraded mode (no usable posterior); "
                 "tuner falls back to quasi-random proposals";
  } else if (fitted && degraded_) {
    degraded_ = false;
    ADML_COUNT("surrogate.recoveries", 1);
    ADML_GAUGE_SET("tuner.degraded_mode", 0);
    ADML_WARN << "surrogate: recovered from degraded mode";
  }

  if (fitted && full_hyperopt) {
    updates_since_hyperopt_ = 0;
    ADML_COUNT("surrogate.hyperopt_scheduled", 1);
    if (objective_gp_ && objective_gp_->is_fitted()) {
      baseline_nlml_per_point_ =
          -objective_gp_->log_marginal_likelihood() /
          static_cast<double>(objective_gp_->num_points());
      baseline_valid_ = true;
    } else {
      baseline_valid_ = false;
    }
  } else if (fitted) {
    ADML_COUNT("surrogate.refit_skipped", 1);
  }
  ADML_GAUGE_SET("surrogate.backend",
                 objective_gp_ && std::string_view(
                                      objective_gp_->backend_name()) == "rff"
                     ? 1
                     : 0);

  if (!real_y.empty()) {
    incumbent_log_ = *std::min_element(real_y.begin(), real_y.end());
  }
  // The refreshed model set (or the decision to degrade) is now the state
  // the tuner resumes from; a crash here must be recoverable from the
  // journal alone.
  ADML_CRASH_POINT("surrogate.refit_commit");
}

void SurrogateModel::drop_models() {
  objective_gp_.reset();
  feasibility_gp_.reset();
  cost_gp_.reset();
  objective_cache_ = {};
  feasibility_cache_ = {};
  cost_cache_ = {};
  baseline_valid_ = false;
}

const char* SurrogateModel::objective_backend() const {
  return objective_gp_ ? objective_gp_->backend_name() : nullptr;
}

void SurrogateModel::fit_or_append(
    std::unique_ptr<gp::Regressor>& model, TrainCache& cache,
    const std::vector<math::Vec>& xs, const std::vector<double>& ys,
    bool full_hyperopt, std::uint64_t role_salt, bool fit) {
  if (xs.size() < 2) {
    model.reset();
    cache = {};
    return;
  }
  // Backend selection. kAuto hands a model to the RFF approximation once
  // its training set crosses the threshold; a switch discards the old
  // model and fits the replacement from scratch (hyperopt included — the
  // fresh backend should not inherit a cold start).
  const bool want_rff =
      options_.backend == SurrogateBackend::kRff ||
      (options_.backend == SurrogateBackend::kAuto &&
       xs.size() >= options_.rff_threshold);
  bool switched = false;
  if (model &&
      (std::string_view(model->backend_name()) == "rff") != want_rff) {
    model.reset();
    switched = true;
    ADML_COUNT("surrogate.backend_switches", 1);
  }
  // Incremental path: unchanged hyperparameters (not a hyperopt round) and
  // the new training set is the old one plus exactly one appended row.
  // Encodings are deterministic functions of the configs, so exact
  // double-equality is the right prefix test.
  const bool appends_one =
      model && model->is_fitted() && !full_hyperopt &&
      xs.size() == cache.xs.size() + 1 &&
      std::equal(cache.xs.begin(), cache.xs.end(), xs.begin()) &&
      std::equal(cache.ys.begin(), cache.ys.end(), ys.begin());
  if (appends_one) {
    model->append_observation(xs.back(), ys.back());
  } else {
    const std::size_t dim = space_->encoded_dimension();
    if (model == nullptr) {
      if (want_rff) {
        // Spectral feature draws come from the surrogate seed and the
        // model's role, not from rng_: creating an RFF model must not
        // shift the random stream the exact path consumes, or enabling
        // the backend would perturb unrelated proposals.
        std::uint64_t state = seed_ + 0x52464600ULL + role_salt;
        model = make_rff(dim, options_, util::splitmix64(state));
      } else {
        model = make_gp(dim, options_.gp);
      }
    }
    const bool hyperopt = full_hyperopt || switched;
    if (!fit) {
      // Never fitted, so never appended to: every update lands here, and
      // only a would-be fit() draws from rng_ (an append never does).
      if (hyperopt) model->skip_fit(xs.size(), rng_);
      return;
    }
    math::Matrix x(xs.size(), dim);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      std::copy(xs[i].begin(), xs[i].end(), x.row(i).begin());
    }
    if (hyperopt) {
      model->fit(x, ys, rng_);
    } else {
      model->refit(x, ys);
    }
  }
  cache.xs = xs;
  cache.ys = ys;
}

SurrogateScore SurrogateModel::score(const conf::Config& config) const {
  if (!ready()) throw std::logic_error("SurrogateModel: not ready");
  const math::Vec x = space_->encode(config);
  SurrogateScore out;
  const gp::GpPrediction obj = objective_gp_->predict(x);
  out.mean = obj.mean;
  out.variance = obj.variance;
  if (feasibility_gp_ && feasibility_gp_->is_fitted()) {
    // Regression on the 0/1 label; clamp the posterior mean into a
    // probability. Cheap and well-behaved for spatially coherent failures.
    const gp::GpPrediction feas = feasibility_gp_->predict(x);
    out.prob_feasible = std::clamp(1.0 - feas.mean, 0.02, 1.0);
  } else {
    out.prob_feasible = std::clamp(feasible_fraction_, 0.02, 1.0);
  }
  if (cost_gp_ && cost_gp_->is_fitted()) {
    out.log_cost = cost_gp_->predict(x).mean;
  }
  return out;
}

void SurrogateModel::score_batch(std::span<const double> xs,
                                 std::span<SurrogateScore> out) const {
  if (!ready()) throw std::logic_error("SurrogateModel: not ready");
  std::vector<gp::GpPrediction> pred(out.size());
  objective_gp_->predict_batch(xs, pred, /*with_variance=*/true);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].mean = pred[i].mean;
    out[i].variance = pred[i].variance;
  }
  const bool feasibility = feasibility_gp_ && feasibility_gp_->is_fitted();
  if (feasibility) feasibility_gp_->predict_batch(xs, pred, false);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].prob_feasible =
        std::clamp(feasibility ? 1.0 - pred[i].mean : feasible_fraction_,
                   0.02, 1.0);
  }
  const bool cost = cost_gp_ && cost_gp_->is_fitted();
  if (cost) cost_gp_->predict_batch(xs, pred, false);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].log_cost = cost ? pred[i].mean : 0.0;
  }
}

math::Vec SurrogateModel::ard_relevance() const {
  if (!ready()) return {};
  const auto* ard =
      dynamic_cast<const gp::ArdKernelBase*>(&objective_gp_->kernel());
  if (ard == nullptr) return {};
  return ard->inverse_lengthscales();
}

}  // namespace autodml::core
