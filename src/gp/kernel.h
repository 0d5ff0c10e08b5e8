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

/// u = ((a_d - b_d) / l_d)^2, one dimension's term of an ARD kernel's r^2
/// and the factor of d k / d log l_d. Every path that forms it calls this
/// function, so each gets the same bits.
inline double scaled_sq(double diff, double l) {
  const double t = diff / l;
  return t * t;
}

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

  /// k and its gradient coefficient for many input pairs in one call, at
  /// the hyperparameters `hypers` (linear space: [l_1..l_D, s^2], exp() of
  /// each hyperparams() entry) instead of the kernel's own, so a
  /// marginal-likelihood evaluation needs no kernel copy. With
  /// pairs = value.size():
  ///   - diffs[d * pairs + p] = a_p[d] - b_p[d] (dimension-major);
  ///   - value[p] receives k(a_p, b_p);
  ///   - unless `coeff` is empty, coeff[p] receives the profile's gradient
  ///     coefficient c, so that d k / d log l_d =
  ///     coeff[p] * scaled_sq(diffs[d * pairs + p], l_d) and
  ///     d k / d log s^2 = value[p].
  /// r^2 = sum_d scaled_sq(diff, l_d) is accumulated over d in ascending
  /// order with all pairs advancing together, and the radial profile maps
  /// it to k and c. Allocates nothing. Each value, and each product of c
  /// with a term, is bitwise what eval() and grad_hyper() give for that
  /// pair at the same hyperparameters.
  void eval_pairs(std::span<const double> hypers,
                  std::span<const double> diffs, std::span<double> value,
                  std::span<double> coeff) const;

  /// k(x_i, c) at the kernel's own hyperparameters for every pair of a
  /// row x_i of `x` (row-major, value.size() / m rows) and one of m points
  /// c, given dimension-major in `ct` (ct[d * m + c] = c[d]):
  /// value[i * m + c] receives k(x_i, c). Same per-pair operations as
  /// eval_pairs, with the difference x_i[d] - c[d] formed on the fly, so
  /// each value is bitwise eval(x_i, c). Allocates nothing.
  void eval_cross(std::span<const double> x, std::span<const double> ct,
                  std::size_t m, std::span<double> value) const;

  /// k(a,b) and d k(a,b) / d log theta_t into `grad_out` (size
  /// num_hyperparams()): eval_pairs() on one pair at the current
  /// hyperparameters.
  // Test surface: tests/gp_test.cpp
  double eval_with_grad(std::span<const double> a, std::span<const double> b,
                        std::span<double> grad_out) const;

  /// d k(a,b) / d log theta_t for every hyperparameter.
  // Test surface: tests/gp_test.cpp
  math::Vec grad_hyper(std::span<const double> a,
                       std::span<const double> b) const;

  std::span<const double> lengthscales() const { return lengthscales_; }
  double signal_variance() const { return signal_variance_; }

  /// 1/lengthscale per dimension — the ARD relevance used by the
  /// sensitivity experiment (large value = the knob matters).
  math::Vec inverse_lengthscales() const;

 protected:
  /// r^2 = sum_d scaled_sq(a_d - b_d, l_d), accumulated in dimension order.
  double scaled_sq_dist(std::span<const double> a,
                        std::span<const double> b) const;

  /// The radial profile, once per batch: replaces each r^2 in `r2_to_k`
  /// with k at signal variance `sv` and, unless `coeff` is empty, writes
  /// the lengthscale-gradient coefficient of the same pair to `coeff`.
  virtual void radial(double sv, std::span<double> r2_to_k,
                      std::span<double> coeff) const = 0;

  std::vector<double> lengthscales_;
  double signal_variance_ = 1.0;
};

/// k(a,b) = s^2 exp(-1/2 sum_d (a_d-b_d)^2/l_d^2)
class SquaredExponentialArd final : public ArdKernelBase {
 public:
  using ArdKernelBase::ArdKernelBase;
  double eval(std::span<const double> a,
              std::span<const double> b) const override;
  std::unique_ptr<Kernel> clone() const override;

 private:
  void radial(double sv, std::span<double> r2_to_k,
              std::span<double> coeff) const override;
};

/// Matern-5/2 with ARD: k = s^2 (1 + sqrt5 r + 5/3 r^2) exp(-sqrt5 r),
/// r^2 = sum_d (a_d-b_d)^2/l_d^2. The standard BO default: rougher than SE,
/// which matches the noisy, kinked response surfaces of system tuning.
class Matern52Ard final : public ArdKernelBase {
 public:
  using ArdKernelBase::ArdKernelBase;
  double eval(std::span<const double> a,
              std::span<const double> b) const override;
  std::unique_ptr<Kernel> clone() const override;

 private:
  void radial(double sv, std::span<double> r2_to_k,
              std::span<double> coeff) const override;
};

}  // namespace autodml::gp
