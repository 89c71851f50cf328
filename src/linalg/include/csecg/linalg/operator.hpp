// Matrix-free linear operators, their norm estimate and adjoint check.
//
// The recovery solvers only ever need y = K·x and x = Kᵀ·y products, so
// they are written against LinearOperator; a dense or sign-packed Matrix
// and a fast wavelet transform plug in uniformly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "csecg/linalg/matrix.hpp"
#include "csecg/linalg/vector.hpp"

namespace csecg::linalg {

namespace detail {
class SignPackedMatrix;
}  // namespace detail

/// A linear map R^cols → R^rows given by destination-passing callables
/// for K and Kᵀ.
class LinearOperator {
 public:
  /// Writes the product into a caller-owned vector, already sized to the
  /// output dimension, without allocating.
  using ApplyInto = std::function<void(const Vector&, Vector&)>;

  LinearOperator() = default;

  /// Wraps forward/adjoint destination callables with explicit dimensions.
  LinearOperator(std::size_t rows, std::size_t cols, ApplyInto forward,
                 ApplyInto adjoint);

  /// Wraps a matrix.  If every column j is ±c_j for one c_j > 0 (the
  /// RMPI chip matrix, with or without leakage), it is stored as sign bits
  /// plus column scales and applied by multiply-free table-lookup kernels:
  /// Kᵀ·y is then bit-identical to multiply_transpose for c_j = 1, and K·x
  /// agrees with multiply to rounding.  Any other matrix is copied and
  /// applied by the dense gemv kernels.
  static LinearOperator from_matrix(const Matrix& a);

  /// The same map with the rows whose `keep` entry is 0 masked out (M·K
  /// for the 0/1 diagonal M = diag(keep)): the forward writes 0 on those
  /// rows and the adjoint reads 0 there.  `keep` has rows() entries.  A
  /// sign-packed from_matrix operator skips the masked rows' work; the
  /// result is bit-identical to applying in full and then zeroing, which
  /// is what any other operator does.
  LinearOperator with_row_mask(std::vector<std::uint8_t> keep) const;

  /// Identity operator of order n.
  static LinearOperator identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  /// K·x into a fresh vector.  Validates the input dimension.
  Vector apply(const Vector& x) const;

  /// Kᵀ·y into a fresh vector.  Validates the input dimension.
  Vector apply_adjoint(const Vector& y) const;

  /// y ← K·x into a caller-owned vector (resized to rows()); allocation-free
  /// for from_matrix operators.  `x` and `y` must not alias.
  void apply_into(const Vector& x, Vector& y) const;

  /// x ← Kᵀ·y into a caller-owned vector (resized to cols()); same
  /// contract as apply_into.
  void apply_adjoint_into(const Vector& y, Vector& x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  ApplyInto forward_;
  ApplyInto adjoint_;
  /// Set by from_matrix when the matrix packs; with_row_mask reaches its
  /// masked kernels through it.
  std::shared_ptr<const detail::SignPackedMatrix> packed_;
};

/// Estimates the operator norm ‖K‖₂ (largest singular value) by power
/// iteration on KᵀK.  Deterministic given the fixed internal start vector.
/// `iterations` caps the work; 50 is plenty for the step-size safety use.
double operator_norm_estimate(const LinearOperator& op, int iterations = 50);

/// Checks ⟨K·x, y⟩ == ⟨x, Kᵀ·y⟩ on random probes; returns the largest
/// relative mismatch.  Used by tests to validate hand-written adjoints.
double adjoint_mismatch(const LinearOperator& op, int probes = 5,
                        unsigned long long seed = 42);

}  // namespace csecg::linalg
