// Dense real matrix (row-major) and BLAS-2/3 style kernels.
//
// Sensing matrices in csecg are m×n with m,n ≤ a few hundred, so a plain
// row-major dense type with straightforward triple loops (ikj order for
// gemm) is fast enough and keeps the code auditable.
#pragma once

#include <cstddef>
#include <vector>

#include "csecg/linalg/vector.hpp"

namespace csecg::linalg {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a zero matrix of the given shape.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double& operator()(std::size_t i, std::size_t j) noexcept {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const noexcept {
    return data_[i * cols_ + j];
  }

  /// Bounds-checked access; throws std::out_of_range.
  double& at(std::size_t i, std::size_t j);
  double at(std::size_t i, std::size_t j) const;

  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }

  /// Pointer to the start of row i (contiguous, cols() entries).
  double* row(std::size_t i) noexcept { return data_.data() + i * cols_; }
  const double* row(std::size_t i) const noexcept {
    return data_.data() + i * cols_;
  }

  /// Identity matrix of order n.
  static Matrix identity(std::size_t n);

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// y = A·x.  Requires x.size() == A.cols().
Vector multiply(const Matrix& a, const Vector& x);

/// y = Aᵀ·x.  Requires x.size() == A.rows().
Vector multiply_transpose(const Matrix& a, const Vector& x);

/// y = A·x written into a caller-owned vector (resized to A.rows());
/// allocation-free when y already has the right size.  The kernel blocks
/// rows in groups of four with four independent accumulators each, so x
/// is streamed once per block and the reduction has no loop-carried
/// dependency chain.
void multiply_into(const Matrix& a, const Vector& x, Vector& y);

/// y = Aᵀ·x written into a caller-owned vector (resized to A.cols());
/// allocation-free when y already has the right size.  Blocks rows in
/// groups of four (branch-free, one pass over y per block).
void multiply_transpose_into(const Matrix& a, const Vector& x, Vector& y);

/// C = A·B.  Requires a.cols() == b.rows().
Matrix multiply(const Matrix& a, const Matrix& b);

/// Aᵀ as a new matrix.
Matrix transpose(const Matrix& a);

/// Gram matrix AᵀA (n×n, symmetric).
Matrix gram(const Matrix& a);

/// Largest |entry| of A - B; shapes must match.
double max_abs_diff(const Matrix& a, const Matrix& b);

/// Scales every column of A to unit Euclidean norm in place; zero columns
/// are left untouched.  CS sensing matrices are conventionally column-
/// normalized so restricted-isometry behaviour is comparable across
/// ensembles.
void normalize_columns(Matrix& a) noexcept;

}  // namespace csecg::linalg
