#include "gp/kernel.h"

#include <cmath>
#include <stdexcept>

namespace autodml::gp {

namespace {
constexpr double kSqrt5 = 2.23606797749978969;
// Bounds chosen for inputs normalized to [0,1] and standardized targets.
constexpr double kLenLo = 0.01, kLenHi = 20.0;
constexpr double kSigLo = 0.01, kSigHi = 50.0;
}  // namespace

ArdKernelBase::ArdKernelBase(std::size_t dim) : lengthscales_(dim, 0.5) {
  if (dim == 0) throw std::invalid_argument("kernel: zero input dimension");
}

math::Vec ArdKernelBase::hyperparams() const {
  math::Vec theta;
  theta.reserve(num_hyperparams());
  for (double l : lengthscales_) theta.push_back(std::log(l));
  theta.push_back(std::log(signal_variance_));
  return theta;
}

void ArdKernelBase::set_hyperparams(std::span<const double> log_theta) {
  if (log_theta.size() != num_hyperparams())
    throw std::invalid_argument("kernel: hyperparameter count mismatch");
  for (std::size_t d = 0; d < lengthscales_.size(); ++d) {
    lengthscales_[d] = std::exp(log_theta[d]);
  }
  signal_variance_ = std::exp(log_theta[lengthscales_.size()]);
}

std::pair<math::Vec, math::Vec> ArdKernelBase::hyper_bounds() const {
  math::Vec lo(num_hyperparams()), hi(num_hyperparams());
  for (std::size_t d = 0; d < lengthscales_.size(); ++d) {
    lo[d] = std::log(kLenLo);
    hi[d] = std::log(kLenHi);
  }
  lo.back() = std::log(kSigLo);
  hi.back() = std::log(kSigHi);
  return {lo, hi};
}

math::Vec ArdKernelBase::inverse_lengthscales() const {
  math::Vec out;
  out.reserve(lengthscales_.size());
  for (double l : lengthscales_) out.push_back(1.0 / l);
  return out;
}

double ArdKernelBase::scaled_sq_dist(std::span<const double> a,
                                     std::span<const double> b,
                                     std::span<double> u) const {
  if (a.size() != lengthscales_.size() || b.size() != lengthscales_.size())
    throw std::invalid_argument("kernel: input dimension mismatch");
  double s = 0.0;
  for (std::size_t d = 0; d < lengthscales_.size(); ++d) {
    const double diff = (a[d] - b[d]) / lengthscales_[d];
    const double ud = diff * diff;
    if (!u.empty()) u[d] = ud;
    s += ud;
  }
  return s;
}

void ArdKernelBase::check_grad_size(std::span<const double> grad_out) const {
  if (grad_out.size() != num_hyperparams())
    throw std::invalid_argument("kernel: gradient size mismatch");
}

math::Vec Kernel::grad_hyper(std::span<const double> a,
                             std::span<const double> b) const {
  math::Vec grad(num_hyperparams());
  eval_with_grad(a, b, grad);
  return grad;
}

// ---- Squared exponential ---------------------------------------------------

double SquaredExponentialArd::eval(std::span<const double> a,
                                   std::span<const double> b) const {
  return signal_variance_ * std::exp(-0.5 * scaled_sq_dist(a, b));
}

double SquaredExponentialArd::eval_with_grad(
    std::span<const double> a, std::span<const double> b,
    std::span<double> grad_out) const {
  check_grad_size(grad_out);
  const std::size_t dim = lengthscales_.size();
  const double s = scaled_sq_dist(a, b, grad_out.first(dim));
  const double k = signal_variance_ * std::exp(-0.5 * s);
  // d/d log l_d: u_d depends on l_d as l_d^{-2}; d u_d / d log l_d = -2 u_d,
  // so d k / d log l_d = k * u_d.
  for (std::size_t d = 0; d < dim; ++d) grad_out[d] = k * grad_out[d];
  grad_out[dim] = k;  // d/d log s^2
  return k;
}

std::unique_ptr<Kernel> SquaredExponentialArd::clone() const {
  return std::make_unique<SquaredExponentialArd>(*this);
}

// ---- Matern 5/2 -------------------------------------------------------------

double Matern52Ard::eval(std::span<const double> a,
                         std::span<const double> b) const {
  const double r2 = scaled_sq_dist(a, b);
  const double r = std::sqrt(r2);
  return signal_variance_ * (1.0 + kSqrt5 * r + (5.0 / 3.0) * r2) *
         std::exp(-kSqrt5 * r);
}

double Matern52Ard::eval_with_grad(std::span<const double> a,
                                   std::span<const double> b,
                                   std::span<double> grad_out) const {
  check_grad_size(grad_out);
  const std::size_t dim = lengthscales_.size();
  const double r2 = scaled_sq_dist(a, b, grad_out.first(dim));
  const double r = std::sqrt(r2);
  const double e = std::exp(-kSqrt5 * r);
  // dk/dr = -(5/3) r (1 + sqrt5 r) e^{-sqrt5 r}; dr/d log l_d = -u_d / r.
  // Product has no 1/r singularity: dk/d log l_d = s^2 (5/3)(1+sqrt5 r) e u_d.
  const double coeff = signal_variance_ * (5.0 / 3.0) * (1.0 + kSqrt5 * r) * e;
  for (std::size_t d = 0; d < dim; ++d) grad_out[d] = coeff * grad_out[d];
  const double k = signal_variance_ * (1.0 + kSqrt5 * r + (5.0 / 3.0) * r2) * e;
  grad_out[dim] = k;  // d/d log s^2
  return k;
}

std::unique_ptr<Kernel> Matern52Ard::clone() const {
  return std::make_unique<Matern52Ard>(*this);
}

}  // namespace autodml::gp
