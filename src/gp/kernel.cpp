#include "gp/kernel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "gp/blocked.h"

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
                                     std::span<const double> b) const {
  if (a.size() != lengthscales_.size() || b.size() != lengthscales_.size())
    throw std::invalid_argument("kernel: input dimension mismatch");
  double s = 0.0;
  for (std::size_t d = 0; d < lengthscales_.size(); ++d)
    s += scaled_sq(a[d] - b[d], lengthscales_[d]);
  return s;
}

namespace {
/// r2[p] += scaled_sq(diff[p], l) over the pairs of one dimension. The
/// buffers never overlap; kept out of line so that the __restrict
/// qualifiers survive and the blocks vectorize.
[[gnu::noinline]] void add_scaled_sq(const double* __restrict diff,
                                     double l, double* __restrict r2,
                                     std::size_t pairs) {
  for_each_blocked(pairs,
                   [=](std::size_t p) { r2[p] += scaled_sq(diff[p], l); });
}

/// r2[c] += scaled_sq(a - b[c], l) over the m points of one dimension.
[[gnu::noinline]] void add_scaled_sq_from(double a,
                                          const double* __restrict b,
                                          double l, double* __restrict r2,
                                          std::size_t m) {
  for_each_blocked(m,
                   [=](std::size_t c) { r2[c] += scaled_sq(a - b[c], l); });
}
}  // namespace

void ArdKernelBase::eval_pairs(std::span<const double> hypers,
                               std::span<const double> diffs,
                               std::span<double> value,
                               std::span<double> coeff) const {
  const std::size_t dim = lengthscales_.size();
  const std::size_t pairs = value.size();
  if (hypers.size() != dim + 1 || diffs.size() != dim * pairs ||
      (!coeff.empty() && coeff.size() != pairs))
    throw std::invalid_argument("kernel: eval_pairs size mismatch");
  // Same per-pair operations as scaled_sq_dist, dimension by dimension:
  // each pair still sums its u_d from 0.0 in ascending d.
  std::fill(value.begin(), value.end(), 0.0);
  for (std::size_t d = 0; d < dim; ++d)
    add_scaled_sq(diffs.data() + d * pairs, hypers[d], value.data(), pairs);
  radial(hypers[dim], value, coeff);
}

void ArdKernelBase::eval_cross(std::span<const double> x,
                               std::span<const double> ct, std::size_t m,
                               std::span<double> value) const {
  const std::size_t dim = lengthscales_.size();
  const std::size_t rows = m == 0 ? 0 : value.size() / m;
  if (ct.size() != dim * m || rows * m != value.size() ||
      x.size() != rows * dim)
    throw std::invalid_argument("kernel: eval_cross size mismatch");
  // Each pair sums its u_d from 0.0 in ascending d, as scaled_sq_dist does.
  std::fill(value.begin(), value.end(), 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t d = 0; d < dim; ++d) {
      add_scaled_sq_from(x[i * dim + d], ct.data() + d * m, lengthscales_[d],
                         value.data() + i * m, m);
    }
  }
  radial(signal_variance_, value, {});
}

double ArdKernelBase::eval_with_grad(std::span<const double> a,
                                     std::span<const double> b,
                                     std::span<double> grad_out) const {
  const std::size_t dim = lengthscales_.size();
  if (a.size() != dim || b.size() != dim)
    throw std::invalid_argument("kernel: input dimension mismatch");
  if (grad_out.size() != num_hyperparams())
    throw std::invalid_argument("kernel: gradient size mismatch");
  math::Vec hypers(lengthscales_);
  hypers.push_back(signal_variance_);
  math::Vec diffs(dim);
  for (std::size_t d = 0; d < dim; ++d) diffs[d] = a[d] - b[d];
  double k = 0.0, coeff = 0.0;
  eval_pairs(hypers, diffs, std::span<double>(&k, 1),
             std::span<double>(&coeff, 1));
  for (std::size_t d = 0; d < dim; ++d)
    grad_out[d] = coeff * scaled_sq(diffs[d], hypers[d]);
  grad_out[dim] = k;
  return k;
}

math::Vec ArdKernelBase::grad_hyper(std::span<const double> a,
                                    std::span<const double> b) const {
  math::Vec grad(num_hyperparams());
  eval_with_grad(a, b, grad);
  return grad;
}

// ---- Squared exponential ---------------------------------------------------

namespace {
double se_k(double sv, double r2) { return sv * std::exp(-0.5 * r2); }
}  // namespace

double SquaredExponentialArd::eval(std::span<const double> a,
                                   std::span<const double> b) const {
  return se_k(signal_variance_, scaled_sq_dist(a, b));
}

void SquaredExponentialArd::radial(double sv, std::span<double> r2_to_k,
                                   std::span<double> coeff) const {
  // u_d depends on l_d as l_d^{-2}; d u_d / d log l_d = -2 u_d, so
  // d k / d log l_d = k * u_d.
  for (std::size_t p = 0; p < r2_to_k.size(); ++p) {
    r2_to_k[p] = se_k(sv, r2_to_k[p]);
    if (!coeff.empty()) coeff[p] = r2_to_k[p];
  }
}

std::unique_ptr<Kernel> SquaredExponentialArd::clone() const {
  return std::make_unique<SquaredExponentialArd>(*this);
}

// ---- Matern 5/2 -------------------------------------------------------------

namespace {
/// k at r^2, with r = sqrt(r^2) and e = exp(-sqrt5 r).
double matern_k(double sv, double r2, double r, double e) {
  return sv * (1.0 + kSqrt5 * r + (5.0 / 3.0) * r2) * e;
}
}  // namespace

double Matern52Ard::eval(std::span<const double> a,
                         std::span<const double> b) const {
  const double r2 = scaled_sq_dist(a, b);
  const double r = std::sqrt(r2);
  return matern_k(signal_variance_, r2, r, std::exp(-kSqrt5 * r));
}

void Matern52Ard::radial(double sv, std::span<double> r2_to_k,
                         std::span<double> coeff) const {
  for (std::size_t p = 0; p < r2_to_k.size(); ++p) {
    const double r2 = r2_to_k[p];
    const double r = std::sqrt(r2);
    const double e = std::exp(-kSqrt5 * r);
    // dk/dr = -(5/3) r (1 + sqrt5 r) e^{-sqrt5 r}; dr/d log l_d = -u_d / r.
    // The product has no 1/r singularity:
    // dk/d log l_d = s^2 (5/3)(1+sqrt5 r) e u_d.
    if (!coeff.empty()) coeff[p] = sv * (5.0 / 3.0) * (1.0 + kSqrt5 * r) * e;
    r2_to_k[p] = matern_k(sv, r2, r, e);
  }
}

std::unique_ptr<Kernel> Matern52Ard::clone() const {
  return std::make_unique<Matern52Ard>(*this);
}

}  // namespace autodml::gp
