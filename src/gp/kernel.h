// Covariance kernels with ARD lengthscales.
//
// Hyperparameters are exposed in log space: every kernel hyperparameter is
// positive, the marginal-likelihood surface is better conditioned in log
// coordinates, and box bounds become simple intervals. Gradients returned by
// grad_hyper are therefore with respect to the *log* hyperparameters.
#pragma once

#include <memory>
#include <span>
#include <utility>

#include "math/matrix.h"

namespace autodml::gp {

class Kernel {
 public:
  virtual ~Kernel() = default;

  virtual std::size_t input_dim() const = 0;
  virtual std::size_t num_hyperparams() const = 0;

  /// Current hyperparameters, log space.
  virtual math::Vec hyperparams() const = 0;
  virtual void set_hyperparams(std::span<const double> log_theta) = 0;

  /// Box bounds (log space) used by the marginal-likelihood optimizer.
  virtual std::pair<math::Vec, math::Vec> hyper_bounds() const = 0;

  virtual double eval(std::span<const double> a,
                      std::span<const double> b) const = 0;

  /// Returns k(a,b) and writes d k(a,b) / d log_theta_i for every
  /// hyperparameter to `grad_out` (size num_hyperparams()). Allocates
  /// nothing; bitwise-equal to eval() plus grad_hyper(). The marginal-
  /// likelihood gradient fills the Gram matrix and its derivatives in one
  /// pass with it.
  virtual double eval_with_grad(std::span<const double> a,
                                std::span<const double> b,
                                std::span<double> grad_out) const = 0;

  /// d k(a,b) / d log_theta_i for every hyperparameter.
  math::Vec grad_hyper(std::span<const double> a,
                       std::span<const double> b) const;

  virtual std::unique_ptr<Kernel> clone() const = 0;
};

/// Common state for ARD kernels over [0,1]^dim encodings: one lengthscale
/// per input dimension plus a signal variance.
class ArdKernelBase : public Kernel {
 public:
  explicit ArdKernelBase(std::size_t dim);

  std::size_t input_dim() const override { return lengthscales_.size(); }
  std::size_t num_hyperparams() const override {
    return lengthscales_.size() + 1;  // + signal variance
  }
  math::Vec hyperparams() const override;
  void set_hyperparams(std::span<const double> log_theta) override;
  std::pair<math::Vec, math::Vec> hyper_bounds() const override;

  std::span<const double> lengthscales() const { return lengthscales_; }
  double signal_variance() const { return signal_variance_; }

  /// 1/lengthscale per dimension — the ARD relevance used by the
  /// sensitivity experiment (large value = the knob matters).
  math::Vec inverse_lengthscales() const;

 protected:
  /// r^2 = sum_d u_d over the scaled squared distance terms
  /// u_d = (a_d-b_d)^2 / l_d^2, accumulated in dimension order. When `u`
  /// is non-empty it receives the terms (u.size() == input_dim()).
  double scaled_sq_dist(std::span<const double> a, std::span<const double> b,
                        std::span<double> u = {}) const;

  /// Throws unless grad_out has one slot per hyperparameter.
  void check_grad_size(std::span<const double> grad_out) const;

  std::vector<double> lengthscales_;
  double signal_variance_ = 1.0;
};

/// k(a,b) = s^2 exp(-1/2 sum_d (a_d-b_d)^2/l_d^2)
class SquaredExponentialArd final : public ArdKernelBase {
 public:
  using ArdKernelBase::ArdKernelBase;
  double eval(std::span<const double> a,
              std::span<const double> b) const override;
  double eval_with_grad(std::span<const double> a, std::span<const double> b,
                        std::span<double> grad_out) const override;
  std::unique_ptr<Kernel> clone() const override;
};

/// Matern-5/2 with ARD: k = s^2 (1 + sqrt5 r + 5/3 r^2) exp(-sqrt5 r),
/// r^2 = sum_d (a_d-b_d)^2/l_d^2. The standard BO default: rougher than SE,
/// which matches the noisy, kinked response surfaces of system tuning.
class Matern52Ard final : public ArdKernelBase {
 public:
  using ArdKernelBase::ArdKernelBase;
  double eval(std::span<const double> a,
              std::span<const double> b) const override;
  double eval_with_grad(std::span<const double> a, std::span<const double> b,
                        std::span<double> grad_out) const override;
  std::unique_ptr<Kernel> clone() const override;
};

}  // namespace autodml::gp
