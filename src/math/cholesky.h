// Cholesky factorization and SPD solves.
//
// The GP posterior and log-marginal-likelihood both reduce to solves against
// K + sigma^2 I. Kernel matrices are only *numerically* SPD, so the factory
// retries with geometrically increasing diagonal jitter before giving up.
//
// Two factorization paths share one contract (lower factor, jitter carried
// by the caller, nullopt on a non-positive pivot):
//   - a scalar left-looking loop, the reference implementation whose exact
//     operation order the rank-1 append_row reproduces;
//   - a cache-blocked right-looking factorization for large matrices
//     (panel factor + tiled trailing-submatrix update), selected by
//     cholesky()/cholesky_with_jitter() past kCholeskyBlockedThreshold.
// The two differ only in floating-point summation order; both are
// deterministic and single-threaded, and tests bound their divergence.
#pragma once

#include <optional>

#include "math/matrix.h"

namespace autodml::math {

/// Matrices at least this large factorize through the blocked path.
inline constexpr std::size_t kCholeskyBlockedThreshold = 128;

/// Tile edge of the blocked factorization: panels of kCholeskyBlock
/// columns, trailing updates on kCholeskyBlock-deep strips (64 columns =
/// 32 KiB per row strip, two strips resident in a typical L1d).
inline constexpr std::size_t kCholeskyBlock = 64;

struct CholeskyFactor {
  Matrix lower;        // L such that L * L^T = A (+ jitter*I)
  double jitter = 0.0; // diagonal boost that was required (0 if none)

  /// Solve L y = b.
  Vec solve_lower(std::span<const double> b) const;
  /// Solve (L L^T) x = b.
  Vec solve(std::span<const double> b) const;
  /// solve(v) written over `v`, bit for bit, allocating nothing.
  void solve_in_place(std::span<double> v) const;
  /// log det(L L^T) = 2 * sum log L_ii.
  double log_det() const;

  /// Rank-1 append: extend the factor of an n x n matrix A to the factor of
  /// [[A, b], [b^T, c]] in O(n^2) — one forward solve for the new row plus a
  /// scalar pivot — instead of the O(n^3) refactorization. The stored jitter
  /// is added to `c`, so the result is identical to refactorizing the
  /// jittered (n+1) x (n+1) matrix from scratch (bit-for-bit against the
  /// *scalar* path, whose recurrence the append replays in the same order;
  /// against the blocked path the difference is summation order only, the
  /// same bound the blocked-vs-scalar tests pin). Returns false and leaves
  /// the factor unchanged when the new pivot is non-positive or non-finite,
  /// i.e. the extended matrix is not PD at this jitter; callers fall back to
  /// a full factorization.
  [[nodiscard]] bool append_row(std::span<const double> b, double c);

  /// Explicit inverse of the lower-triangular factor (L^{-1}, lower
  /// triangular). O(n^3/6) — used to assemble (L L^T)^{-1} as
  /// L^{-T} L^{-1} far cheaper than n unit-vector solves.
  // Test surface: tests/gp_test.cpp
  Matrix lower_inverse() const;
};

/// Plain factorization; returns nullopt if A is not positive definite.
/// Dispatches to the blocked path when a.rows() >= kCholeskyBlockedThreshold
/// and to the scalar path below it.
std::optional<CholeskyFactor> cholesky(const Matrix& a);

/// Scalar left-looking factorization, any size. This is the operation
/// order CholeskyFactor::append_row extends bit-for-bit.
std::optional<CholeskyFactor> cholesky_scalar(const Matrix& a);

/// Cache-blocked right-looking factorization, any size (block defaults to
/// kCholeskyBlock; sizes that do not divide n are handled). Same
/// non-PD contract as cholesky_scalar; results differ from the scalar
/// path only in floating-point summation order.
std::optional<CholeskyFactor> cholesky_blocked(
    const Matrix& a, std::size_t block = kCholeskyBlock);

/// Factorization with adaptive jitter: tries jitter = 0, then
/// `initial_jitter * 10^k` for k = 0..max_tries-1 (scaled by mean diagonal).
/// Throws std::runtime_error if all attempts fail.
CholeskyFactor cholesky_with_jitter(const Matrix& a,
                                    double initial_jitter = 1e-10,
                                    int max_tries = 8);

}  // namespace autodml::math
