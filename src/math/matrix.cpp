#include "math/matrix.h"

#include <algorithm>
#include <cmath>

namespace autodml::math {

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  }
  return t;
}

Matrix Matrix::matmul(const Matrix& other) const {
  if (cols_ != other.rows_)
    throw std::invalid_argument("matmul: inner dimension mismatch");
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < other.cols_; ++j) {
        out(i, j) += a * other(k, j);
      }
    }
  }
  return out;
}

void Matrix::add_to_diagonal(double value) {
  const std::size_t n = std::min(rows_, cols_);
  for (std::size_t i = 0; i < n; ++i) (*this)(i, i) += value;
}

void check_finite(const Matrix& m, const char* what) {
#if AUTODML_CHECKED_ENABLED
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      AUTODML_CHECK(std::isfinite(m(i, j)),
                    std::string(what) + ": non-finite entry " +
                        std::to_string(m(i, j)) + " at (" + std::to_string(i) +
                        "," + std::to_string(j) + ")");
    }
  }
#else
  (void)m;
  (void)what;
#endif
}

void check_finite(std::span<const double> v, const char* what) {
#if AUTODML_CHECKED_ENABLED
  for (std::size_t i = 0; i < v.size(); ++i) {
    AUTODML_CHECK(std::isfinite(v[i]),
                  std::string(what) + ": non-finite entry " +
                      std::to_string(v[i]) + " at index " + std::to_string(i));
  }
#else
  (void)v;
  (void)what;
#endif
}

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

}  // namespace autodml::math
