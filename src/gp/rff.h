// Random-Fourier-feature approximate GP regression (Rahimi & Recht).
//
// A stationary kernel is the Fourier transform of its spectral measure, so
// k(a,b) ≈ φ(a)^T φ(b) with paired features
//   φ(x)_{2j}   = sqrt(2 s^2 / m) cos(ω_j^T x)
//   φ(x)_{2j+1} = sqrt(2 s^2 / m) sin(ω_j^T x),   j < m/2,
// ω_j drawn from the spectral measure (the sin/cos pairing has strictly
// lower variance than the classic random-phase cos(ω^T x + b) features —
// Sutherland & Schneider 2015). Regression then collapses to Bayesian
// linear regression on the m features: one
// m x m solve of A = Φ^T Φ + σ² I instead of the exact GP's n x n one.
// Per refit that is O(n m² + m³); the per-trial append is O(n m + m³)
// (rank-1 update of A, refactorize). With m fixed the cost of a trial no
// longer grows cubically with history size — this is the large-n backend
// SurrogateModel switches to past its trial-count threshold.
//
// Spectral draws: the SE kernel's measure is Gaussian, ω_{j,d} = z_{j,d}/l_d
// with z ~ N(0,1). Matern-5/2's is a multivariate t with 5 degrees of
// freedom: ω_{j,d} = z_{j,d} sqrt(5/q_j) / l_d with q_j ~ χ²_5. The base
// draws (z, q) are fixed at construction from an explicit feature seed —
// hyperparameter changes only rescale ω, so a fitted model is a
// deterministic function of (seed, data, hyperparameters) and proposals
// stay bit-reproducible across runs and journal replays.
//
// Hyperparameters are fitted by exact-GP marginal likelihood on an
// evenly-strided subset of the data (the RFF marginal likelihood has the
// same optima up to approximation error, but the exact subset fit reuses
// the existing, well-tested hyperopt machinery at O(subset³) cost).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "gp/gp.h"
#include "gp/kernel.h"
#include "gp/regressor.h"
#include "math/cholesky.h"
#include "math/matrix.h"

namespace autodml::gp {

struct RffOptions {
  /// Number of random features m (must be even: features come in sin/cos
  /// pairs over m/2 frequencies). Approximation error of the kernel decays
  /// as O(1/sqrt(m)).
  int num_features = 256;
  /// Hyperparameters are optimized by an exact GP on an evenly-strided
  /// subset of at most this many points (0 disables hyperopt entirely).
  int hyperopt_subset = 160;
  /// Underlying hyperopt machinery configuration (restarts, Adam budget,
  /// noise bounds). `optimize_hyperparams=false` also disables the subset
  /// fit.
  GpOptions gp;
};

class RffRegressor final : public Regressor {
 public:
  /// The kernel must derive from ArdKernelBase (the spectral scaling reads
  /// its lengthscales); Matern52Ard and SquaredExponentialArd are
  /// supported. `feature_seed` fixes the base spectral draws for the
  /// lifetime of the model.
  RffRegressor(std::unique_ptr<Kernel> kernel, RffOptions options,
               std::uint64_t feature_seed);

  void fit(const math::Matrix& x, std::span<const double> y,
           util::Rng& rng) override;
  void refit(const math::Matrix& x, std::span<const double> y) override;
  void skip_fit(std::size_t n, util::Rng& rng) const override;

  /// O(n m + m³) append: extend Φ by one row, rank-1-update A = Φ^T Φ + σ²I
  /// in the same summation order refit() uses (so the result is bit-equal
  /// to a refit on the extended data), refactorize the m x m system.
  /// Always takes the fast path; returns true.
  bool append_observation(std::span<const double> x, double y) override;

  bool is_fitted() const override { return factor_.has_value(); }
  std::size_t num_points() const override { return targets_raw_.size(); }

  GpPrediction predict(std::span<const double> x) const override;

  /// Marginal likelihood of the feature-space model, computed in O(m) from
  /// the cached solve via the Woodbury determinant/quadratic identities
  /// (standardized target units, directly comparable to the exact GP's).
  double log_marginal_likelihood() const override;

  double noise_variance() const override;

  const Kernel& kernel() const override { return *kernel_; }
  const char* backend_name() const override { return "rff"; }

  /// Feature map φ(x) at the current hyperparameters (m values).
  // Test surface: tests/rff_test.cpp
  math::Vec features(std::span<const double> x) const;

 private:
  /// Size of the strided subset fit() on n points runs its hyperopt on, or
  /// 0 when that fit runs none.
  std::size_t hyperopt_subset_size(std::size_t n) const;
  void rebuild_omega();
  math::Vec phi_row(std::span<const double> x) const;
  void solve_feature_system();

  std::unique_ptr<Kernel> kernel_;
  const ArdKernelBase* ard_;  // kernel_ viewed through its ARD base
  RffOptions options_;
  double log_noise_;

  // Base spectral draws, fixed at construction (see header comment).
  std::size_t m_;                // feature count; m_/2 frequencies
  std::vector<double> base_z_;   // (m/2) x dim standard normals, row-major
  std::vector<double> base_q_;   // m/2 chi-squared(5) draws (Matern-5/2 only)
  std::vector<double> omega_;    // (m/2) x dim frequencies at current hypers

  math::Matrix x_;
  math::Vec targets_raw_;
  math::Vec targets_std_;
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;

  std::vector<double> phi_;      // n x m feature matrix, row-major
  math::Matrix ata_;             // Φ^T Φ (without the σ² ridge)
  math::Vec phi_ty_;             // Φ^T y_std
  double yty_ = 0.0;             // y_std^T y_std
  std::optional<math::CholeskyFactor> factor_;  // of A = Φ^TΦ + σ²I
  math::Vec weights_;            // A^{-1} Φ^T y_std
};

}  // namespace autodml::gp
