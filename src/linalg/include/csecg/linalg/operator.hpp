// Matrix-free linear operators and iterative methods.
//
// The recovery solvers only ever need y = K·x and x = Kᵀ·y products, so
// they are written against LinearOperator; a dense Matrix, a stacked
// operator [Φ; I], or a fast wavelet transform all plug in uniformly.
#pragma once

#include <cstddef>
#include <functional>

#include "csecg/linalg/matrix.hpp"
#include "csecg/linalg/vector.hpp"

namespace csecg::linalg {

/// A linear map R^cols → R^rows given by callables for K and Kᵀ.
class LinearOperator {
 public:
  using Apply = std::function<Vector(const Vector&)>;
  /// Destination-passing form: writes the product into a caller-owned
  /// vector (already sized correctly) without allocating.
  using ApplyInto = std::function<void(const Vector&, Vector&)>;

  LinearOperator() = default;

  /// Wraps forward/adjoint callables with explicit dimensions.
  LinearOperator(std::size_t rows, std::size_t cols, Apply forward,
                 Apply adjoint);

  /// Wraps forward/adjoint callables plus allocation-free destination
  /// variants.  The *_into callables must compute the same products as
  /// their allocating counterparts; solvers pick whichever is cheaper.
  LinearOperator(std::size_t rows, std::size_t cols, Apply forward,
                 Apply adjoint, ApplyInto forward_into,
                 ApplyInto adjoint_into);

  /// Wraps a matrix.  If every column j is ±c_j for one c_j > 0 (the
  /// RMPI chip matrix, with or without leakage), it is stored as sign bits
  /// plus column scales and applied by multiply-free table-lookup kernels:
  /// Kᵀ·y is then bit-identical to multiply_transpose for c_j = 1, and K·x
  /// agrees with multiply to rounding.  Any other matrix is copied and
  /// applied by the dense gemv kernels.
  static LinearOperator from_matrix(const Matrix& a);

  /// Identity operator of order n.
  static LinearOperator identity(std::size_t n);

  /// Vertical stack [top; bottom]; operand column counts must match.
  static LinearOperator vstack(const LinearOperator& top,
                               const LinearOperator& bottom);

  /// Composition this∘other, i.e. x ↦ this(other(x)).
  LinearOperator compose(const LinearOperator& other) const;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  /// K·x.  Validates the input dimension.
  Vector apply(const Vector& x) const;

  /// Kᵀ·y.  Validates the input dimension.
  Vector apply_adjoint(const Vector& y) const;

  /// y ← K·x into a caller-owned vector (resized to rows()).  Uses the
  /// native destination callable when available (allocation-free for
  /// from_matrix operators), otherwise falls back to apply().  `x` and
  /// `y` must not alias.
  void apply_into(const Vector& x, Vector& y) const;

  /// x ← Kᵀ·y into a caller-owned vector (resized to cols()); same
  /// contract as apply_into.
  void apply_adjoint_into(const Vector& y, Vector& x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Apply forward_;
  Apply adjoint_;
  ApplyInto forward_into_;
  ApplyInto adjoint_into_;
};

/// Estimates the operator norm ‖K‖₂ (largest singular value) by power
/// iteration on KᵀK.  Deterministic given the fixed internal start vector.
/// `iterations` caps the work; 50 is plenty for the step-size safety use.
double operator_norm_estimate(const LinearOperator& op, int iterations = 50);

/// Result of a conjugate-gradient solve.
struct CgResult {
  Vector x;              ///< Approximate solution.
  int iterations = 0;    ///< Iterations performed.
  double residual_norm = 0.0;  ///< ‖b − A·x‖₂ at exit.
  bool converged = false;      ///< True if tolerance met within budget.
};

/// Solves A·x = b for symmetric positive-definite A (as an operator) by
/// conjugate gradients.  `tol` is relative to ‖b‖₂.
CgResult conjugate_gradient(const LinearOperator& a, const Vector& b,
                            int max_iterations = 200, double tol = 1e-10);

/// Checks ⟨K·x, y⟩ == ⟨x, Kᵀ·y⟩ on random probes; returns the largest
/// relative mismatch.  Used by tests to validate hand-written adjoints.
double adjoint_mismatch(const LinearOperator& op, int probes = 5,
                        unsigned long long seed = 42);

}  // namespace csecg::linalg
