#include "math/cholesky.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace autodml::math {

namespace {

/// L y = b, overwriting b (held in `v`) with y.
void solve_lower_in_place(const Matrix& lower, std::span<double> v) {
  const std::size_t n = lower.rows();
  if (v.size() != n) throw std::invalid_argument("solve_lower: size mismatch");
  const double* l = lower.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* l_i = l + i * n;
    double acc = v[i];
    for (std::size_t j = 0; j < i; ++j) acc -= l_i[j] * v[j];
    v[i] = acc / l_i[i];
  }
}

/// L^T x = y, overwriting y (held in `v`) with x. Entry i subtracts
/// L(j, i) x[j] in ascending j, so it needs every x[j] with j > i first
/// and reads L down column i; sweeping the rows of L instead would
/// reverse that order.
void solve_upper_in_place(const Matrix& lower, std::span<double> v) {
  const std::size_t n = lower.rows();
  if (v.size() != n) throw std::invalid_argument("solve_upper: size mismatch");
  const double* l = lower.data().data();
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double acc = v[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= l[j * n + i] * v[j];
    v[i] = acc / l[i * n + i];
  }
}

}  // namespace

Vec CholeskyFactor::solve_lower(std::span<const double> b) const {
  Vec y(b.begin(), b.end());
  solve_lower_in_place(lower, y);
  return y;
}

Vec CholeskyFactor::solve(std::span<const double> b) const {
  Vec x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

void CholeskyFactor::solve_in_place(std::span<double> v) const {
  solve_lower_in_place(lower, v);
  solve_upper_in_place(lower, v);
}

double CholeskyFactor::log_det() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < lower.rows(); ++i) {
    acc += std::log(lower(i, i));
  }
  return 2.0 * acc;
}

bool CholeskyFactor::append_row(std::span<const double> b, double c) {
  const std::size_t n = lower.rows();
  if (b.size() != n) throw std::invalid_argument("append_row: size mismatch");
  check_finite(b, "cholesky append column");
  // New off-diagonal row: L_new l = b, computed in the same order as the
  // from-scratch factorization so the extended factor matches it exactly.
  const Vec row = solve_lower(b);
  double diag = c + jitter;
  for (double v : row) diag -= v * v;
  if (diag <= 0.0 || !std::isfinite(diag)) return false;

  Matrix ext(n + 1, n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) ext(i, j) = lower(i, j);
  }
  for (std::size_t j = 0; j < n; ++j) ext(n, j) = row[j];
  ext(n, n) = std::sqrt(diag);
  lower = std::move(ext);
  return true;
}

Matrix CholeskyFactor::lower_inverse() const {
  const std::size_t n = lower.rows();
  Matrix inv(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    inv(j, j) = 1.0 / lower(j, j);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t k = j; k < i; ++k) acc += lower(i, k) * inv(k, j);
      inv(i, j) = -acc / lower(i, i);
    }
  }
  return inv;
}

namespace {

// Shared failure reporting: `bad_pivot`/`bad_diag` (when non-null) receive
// the row whose pivot went non-positive or non-finite and the value it
// reached — the caller's error message names the culprit instead of
// reporting a bare "not positive definite".
std::optional<CholeskyFactor> scalar_impl(const Matrix& a,
                                          std::size_t* bad_pivot,
                                          double* bad_diag) {
  if (a.rows() != a.cols()) throw std::invalid_argument("cholesky: not square");
  check_finite(a, "cholesky input");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) {
      if (bad_pivot != nullptr) *bad_pivot = j;
      if (bad_diag != nullptr) *bad_diag = diag;
      return std::nullopt;
    }
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / ljj;
    }
  }
  return CholeskyFactor{std::move(l), 0.0};
}

/// Four-accumulator dot product over contiguous slices. The split
/// accumulation order is fixed (deterministic across platforms and runs)
/// and exposes instruction-level parallelism the strict single-accumulator
/// reduction denies the compiler without -ffast-math.
double dot4(const double* a, const double* b, std::size_t m) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t t = 0;
  for (; t + 4 <= m; t += 4) {
    s0 += a[t] * b[t];
    s1 += a[t + 1] * b[t + 1];
    s2 += a[t + 2] * b[t + 2];
    s3 += a[t + 3] * b[t + 3];
  }
  for (; t < m; ++t) s0 += a[t] * b[t];
  return (s0 + s1) + (s2 + s3);
}

/// Blocked right-looking factorization, in place on the lower triangle of
/// `l` (which on entry holds a full copy of A). For each panel of `block`
/// columns: factor the diagonal block (scalar recurrence over in-panel
/// columns only — earlier panels already folded their updates in), solve
/// the panel below it, then rank-`block` update the trailing submatrix.
///
/// The trailing update — asymptotically all of the work — is a SYRK
/// (A22 -= L21 L21^T) over the solved panel. Reading the panel slices out
/// of the full matrix would touch one 4 KiB page per row (stride = n
/// doubles), so the panel is first packed into a contiguous scratch
/// buffer; the update then walks dense kb-length rows. Tiling the j loop
/// keeps a kJTile-row chunk of the packed panel L1-resident while each
/// row i streams past it, so every packed byte is reused kJTile times per
/// pass instead of evicted between dots.
bool blocked_impl_in_place(Matrix& l, std::size_t block,
                           std::size_t* bad_pivot, double* bad_diag) {
  const std::size_t n = l.rows();
  double* data = l.data().data();
  const auto row_at = [&](std::size_t i) { return data + i * n; };
  // Packed-panel rows resident per j-tile: 32 rows x 64 cols x 8 B = 16 KiB,
  // half a typical L1d, leaving room for the streaming i rows.
  constexpr std::size_t kJTile = 32;
  std::vector<double> pack;
  pack.reserve(n * std::min(block, n));
  for (std::size_t k = 0; k < n; k += block) {
    const std::size_t kb = std::min(block, n - k);
    // Diagonal block: columns [k, k+kb) over rows [k, k+kb).
    for (std::size_t j = k; j < k + kb; ++j) {
      double* rj = row_at(j);
      double diag = rj[j] - dot4(rj + k, rj + k, j - k);
      if (diag <= 0.0 || !std::isfinite(diag)) {
        if (bad_pivot != nullptr) *bad_pivot = j;
        if (bad_diag != nullptr) *bad_diag = diag;
        return false;
      }
      const double ljj = std::sqrt(diag);
      rj[j] = ljj;
      for (std::size_t i = j + 1; i < k + kb; ++i) {
        double* ri = row_at(i);
        ri[j] = (ri[j] - dot4(ri + k, rj + k, j - k)) / ljj;
      }
    }
    // Panel solve: rows [k+kb, n) against the freshly factored block.
    for (std::size_t i = k + kb; i < n; ++i) {
      double* ri = row_at(i);
      for (std::size_t j = k; j < k + kb; ++j) {
        const double* rj = row_at(j);
        ri[j] = (ri[j] - dot4(ri + k, rj + k, j - k)) / rj[j];
      }
    }
    // Pack the solved panel L21 (rows [k+kb, n), cols [k, k+kb)) densely.
    const std::size_t base = k + kb;
    const std::size_t trailing = n - base;
    pack.resize(trailing * kb);
    for (std::size_t i = base; i < n; ++i) {
      const double* src = row_at(i) + k;
      std::copy(src, src + kb, pack.data() + (i - base) * kb);
    }
    // Trailing update: A22 -= L21 L21^T, lower triangle only, j-tiled over
    // the packed panel. Each entry is one dot4 over the two packed rows,
    // so the per-entry summation order is independent of the tile shape.
    for (std::size_t jt = base; jt < n; jt += kJTile) {
      const std::size_t jt_end = std::min(jt + kJTile, n);
      for (std::size_t i = jt; i < n; ++i) {
        double* ri = row_at(i);
        const double* pi = pack.data() + (i - base) * kb;
        const std::size_t j_max = std::min(jt_end, i + 1);
        for (std::size_t j = jt; j < j_max; ++j) {
          ri[j] -= dot4(pi, pack.data() + (j - base) * kb, kb);
        }
      }
    }
  }
  // The factorization only ever read/wrote the lower triangle; clear the
  // copied-in upper half so the factor matches the scalar path's layout.
  for (std::size_t i = 0; i < n; ++i) {
    double* ri = row_at(i);
    for (std::size_t j = i + 1; j < n; ++j) ri[j] = 0.0;
  }
  return true;
}

std::optional<CholeskyFactor> blocked_impl(const Matrix& a, std::size_t block,
                                           std::size_t* bad_pivot,
                                           double* bad_diag) {
  if (a.rows() != a.cols()) throw std::invalid_argument("cholesky: not square");
  if (block == 0) throw std::invalid_argument("cholesky: zero block size");
  check_finite(a, "cholesky input");
  ADML_SPAN("math.cholesky_blocked", "n",
            static_cast<std::int64_t>(a.rows()));
  Matrix l = a;
  if (!blocked_impl_in_place(l, block, bad_pivot, bad_diag)) {
    return std::nullopt;
  }
  return CholeskyFactor{std::move(l), 0.0};
}

// Size dispatch shared by cholesky() and the jitter loop: the scalar path
// below the threshold (bit-compatible with append_row's recurrence), the
// blocked path above it.
std::optional<CholeskyFactor> cholesky_impl(const Matrix& a,
                                            std::size_t* bad_pivot,
                                            double* bad_diag) {
  if (a.rows() >= kCholeskyBlockedThreshold) {
    return blocked_impl(a, kCholeskyBlock, bad_pivot, bad_diag);
  }
  return scalar_impl(a, bad_pivot, bad_diag);
}

}  // namespace

std::optional<CholeskyFactor> cholesky(const Matrix& a) {
  return cholesky_impl(a, nullptr, nullptr);
}

std::optional<CholeskyFactor> cholesky_scalar(const Matrix& a) {
  return scalar_impl(a, nullptr, nullptr);
}

std::optional<CholeskyFactor> cholesky_blocked(const Matrix& a,
                                               std::size_t block) {
  return blocked_impl(a, block, nullptr, nullptr);
}

CholeskyFactor cholesky_with_jitter(const Matrix& a, double initial_jitter,
                                    int max_tries) {
  std::size_t bad_pivot = 0;
  double bad_diag = 0.0;
  if (auto f = cholesky_impl(a, &bad_pivot, &bad_diag)) return std::move(*f);
  // Scale the jitter to the problem: use the mean diagonal magnitude.
  double mean_diag = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) mean_diag += std::abs(a(i, i));
  mean_diag = a.rows() ? mean_diag / static_cast<double>(a.rows()) : 1.0;
  if (mean_diag == 0.0) mean_diag = 1.0;

  double jitter = initial_jitter * mean_diag;
  for (int attempt = 0; attempt < max_tries; ++attempt, jitter *= 10.0) {
    Matrix boosted = a;
    boosted.add_to_diagonal(jitter);
    if (auto f = cholesky_impl(boosted, &bad_pivot, &bad_diag)) {
      f->jitter = jitter;
      return std::move(*f);
    }
  }
  throw std::runtime_error(
      "cholesky_with_jitter: matrix not PD even with maximum jitter (pivot " +
      std::to_string(bad_pivot) + " reached " + std::to_string(bad_diag) +
      " on the last attempt)");
}

}  // namespace autodml::math
