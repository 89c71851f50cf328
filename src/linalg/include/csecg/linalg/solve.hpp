// Direct dense solvers: Cholesky and triangular substitution.
//
// Cholesky factors the Gram matrix ΦΦᵀ behind the decoder's least-norm
// warm start.  Factorizations are value types holding their own storage.
#pragma once

#include <cstddef>

#include "csecg/linalg/matrix.hpp"
#include "csecg/linalg/vector.hpp"

namespace csecg::linalg {

/// Cholesky factorization A = L·Lᵀ of a symmetric positive-definite matrix.
/// Construction throws std::invalid_argument if A is not square and
/// std::runtime_error if a non-positive pivot is met (A not SPD).
class Cholesky {
 public:
  explicit Cholesky(const Matrix& a);

  /// Solves A·x = b.
  Vector solve(const Vector& b) const;

  /// Lower-triangular factor.
  const Matrix& factor() const noexcept { return l_; }

 private:
  Matrix l_;
};

/// Solves L·x = b with L lower triangular (forward substitution).
Vector solve_lower(const Matrix& l, const Vector& b);

}  // namespace csecg::linalg
