// Surrogate model over the encoded configuration space.
//
// Three coupled GPs, mirroring what the paper's tuner must track:
//   - objective GP on log(objective) of successful trials — the response
//     surface spans decades, so the log transform is what makes a
//     stationary kernel plausible;
//   - feasibility GP on a 0/1 failure indicator over all *deterministic*
//     trials (OOM and divergence regions are spatially coherent, so the
//     tuner can learn to avoid paying for them; transient failures —
//     preemptions, infra crashes — are environment noise and excluded);
//   - cost GP on log(evaluation cost) of completed trials, feeding the
//     EI-per-cost acquisition (CherryPick-style cost awareness), the only
//     reader of its prediction. BoTuner builds the surrogate without it
//     under every other acquisition; the skipped model still takes from
//     the shared rng exactly the draws its fits would have taken, so the
//     objective and feasibility posteriors are bit-identical either way.
// Aborted runs contribute to feasibility (they did not crash) but not to
// the objective model (their final value is censored).
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "config/config_space.h"
#include "core/tuner_types.h"
#include "gp/gp.h"

namespace autodml::core {

enum class SurrogateBackend {
  kAuto,   // exact GP below rff_threshold points, RFF at or above it
  kExact,  // always the exact GaussianProcess
  kRff,    // always the random-Fourier-feature approximation
};

struct SurrogateOptions {
  /// Refit GP hyperparameters every k updates (1 = always). Factorization
  /// with existing hyperparameters happens on every update regardless.
  /// Between hyperopt rounds, an update that appends exactly one trial to a
  /// GP's training set takes the backend's incremental path (O(n^2) rank-1
  /// Cholesky append on the exact GP, O(nm + m^3) feature-Gram update on
  /// RFF) instead of a full refit.
  int hyperopt_every = 1;
  /// Evidence-based trigger: between scheduled rounds, a full hyperopt
  /// fires anyway when the objective model's per-point negative log
  /// marginal likelihood has degraded by more than this many nats since
  /// the last hyperopt (stale hyperparameters stop explaining the data).
  /// <= 0 disables the trigger.
  double refit_nlml_degradation = 0.1;
  /// Which regression backend serves each GP.
  SurrogateBackend backend = SurrogateBackend::kAuto;
  /// kAuto: a model switches to the RFF backend once its training set
  /// reaches this many points (full refit cost drops from O(n^3) to
  /// O(n m^2 + m^3)).
  std::size_t rff_threshold = 1024;
  /// Number of random Fourier features m for the RFF backend.
  int rff_features = 256;
  /// Graceful degradation: when a backend fit throws (non-PD Gram after
  /// the Cholesky jitter ladder is exhausted, NaN in hyperopt), the model
  /// set is rebuilt from scratch with the noise floor raised by this
  /// factor, up to `max_noise_escalations` times, before the surrogate
  /// enters degraded mode (ready() == false until a later update fits).
  double noise_escalation_factor = 100.0;
  int max_noise_escalations = 2;
  gp::GpOptions gp;
};

struct SurrogateScore {
  double mean = 0.0;          // posterior mean of log objective
  double variance = 0.0;
  double prob_feasible = 1.0;
  double log_cost = 0.0;      // posterior mean of log evaluation cost
};

class SurrogateModel {
 public:
  /// `fit_cost_model = false` skips every cost-GP fit and score().log_cost
  /// stays 0. Intended: a cost fit that would have thrown can then no
  /// longer raise the noise floor for the other two models.
  SurrogateModel(const conf::ConfigSpace& space, SurrogateOptions options,
                 std::uint64_t seed, bool fit_cost_model = true);

  /// Rebuild from the full trial history (idempotent).
  void update(std::span<const Trial> trials);

  /// True once at least two successful trials exist (enough to predict).
  bool ready() const { return objective_gp_ && objective_gp_->is_fitted(); }

  /// True while the model is in degraded mode: the last update() exhausted
  /// the noise-escalation ladder without producing a finite fit, so no
  /// posterior is available and the tuner should fall back to quasi-random
  /// proposals. Cleared automatically by the next successful refit.
  bool degraded() const { return degraded_; }

  /// Posterior at a configuration. Requires ready().
  SurrogateScore score(const conf::Config& config) const;

  /// score() at out.size() configurations given by their encodings,
  /// row-major in `xs` (out.size() rows of space().encoded_dimension()),
  /// bit for bit, through each model's predict_batch. The feasibility and
  /// cost models predict means only. Requires ready().
  void score_batch(std::span<const double> xs,
                   std::span<SurrogateScore> out) const;

  /// Best (lowest) observed log objective. Requires ready().
  double incumbent_log() const { return incumbent_log_; }

  /// ARD relevance per encoded coordinate of the objective GP (empty until
  /// ready()); used by the sensitivity experiment.
  math::Vec ard_relevance() const;

  const conf::ConfigSpace& space() const { return *space_; }

  /// Whether score().log_cost comes from a fitted cost model.
  bool fits_cost_model() const { return fit_cost_model_; }

  /// Backend currently serving the objective model ("exact"/"rff"), or
  /// nullptr before the first fit.
  // Test surface: tests/rff_test.cpp
  const char* objective_backend() const;

 private:
  /// Training set a model was last fitted on; lets update() detect the
  /// append-one-trial case and take the incremental path.
  struct TrainCache {
    std::vector<math::Vec> xs;
    std::vector<double> ys;
  };

  /// `fit = false` runs the same decisions but fits nothing: the model
  /// object only carries its backend, and a would-be fit() becomes
  /// skip_fit() on rng_.
  void fit_or_append(std::unique_ptr<gp::Regressor>& model, TrainCache& cache,
                     const std::vector<math::Vec>& xs,
                     const std::vector<double>& ys, bool full_hyperopt,
                     std::uint64_t role_salt, bool fit = true);

  /// Discard every fitted model and its training cache (partial state left
  /// behind by a failed fit is not trustworthy).
  void drop_models();

  const conf::ConfigSpace* space_;
  SurrogateOptions options_;
  util::Rng rng_;
  std::uint64_t seed_;
  bool fit_cost_model_;
  int updates_since_hyperopt_ = 0;
  /// Objective model's per-point negative LML recorded at the last
  /// hyperopt; reference for the evidence-based refit trigger.
  double baseline_nlml_per_point_ = 0.0;
  bool baseline_valid_ = false;

  std::unique_ptr<gp::Regressor> objective_gp_;
  std::unique_ptr<gp::Regressor> feasibility_gp_;
  std::unique_ptr<gp::Regressor> cost_gp_;
  TrainCache objective_cache_;
  TrainCache feasibility_cache_;
  TrainCache cost_cache_;
  double incumbent_log_ = 0.0;
  double feasible_fraction_ = 1.0;
  bool degraded_ = false;
};

}  // namespace autodml::core
