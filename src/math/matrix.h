// Dense row-major matrix and vector helpers.
//
// Deliberately minimal: the GP library needs SPD factorization, triangular
// solves, dot products and axpy — nothing else — so we keep the surface
// small rather than growing a general linear-algebra package.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/check.h"

namespace autodml::math {

using Vec = std::vector<double>;

// ---- Vector helpers ------------------------------------------------------

double dot(std::span<const double> a, std::span<const double> b);
void axpy(double alpha, std::span<const double> x, std::span<double> y);  // y += alpha*x

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t i, std::size_t j) {
    AUTODML_CHECK(i < rows_ && j < cols_, index_msg(i, j));
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    AUTODML_CHECK(i < rows_ && j < cols_, index_msg(i, j));
    return data_[i * cols_ + j];
  }

  std::span<double> row(std::size_t i) {
    AUTODML_CHECK(i < rows_, index_msg(i, 0));
    return {data_.data() + i * cols_, cols_};
  }
  std::span<const double> row(std::size_t i) const {
    AUTODML_CHECK(i < rows_, index_msg(i, 0));
    return {data_.data() + i * cols_, cols_};
  }

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  // Test surface: tests/math_test.cpp
  Matrix transposed() const;

  /// this * other.
  // Test surface: tests/math_test.cpp
  Matrix matmul(const Matrix& other) const;

  void add_to_diagonal(double value);

  /// Max |a_ij - b_ij|.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

 private:
  std::string index_msg(std::size_t i, std::size_t j) const {
    return "Matrix index (" + std::to_string(i) + "," + std::to_string(j) +
           ") out of bounds for " + std::to_string(rows_) + "x" +
           std::to_string(cols_);
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Throws (AUTODML_CHECKED builds only) when any entry of `m` is NaN/Inf,
/// naming `what` and the offending row/col. No-op otherwise.
void check_finite(const Matrix& m, const char* what);

/// Same for a vector; the offending index is reported.
void check_finite(std::span<const double> v, const char* what);

}  // namespace autodml::math
