#include "csecg/linalg/solve.hpp"

#include <cmath>
#include <stdexcept>

#include "csecg/common/check.hpp"

namespace csecg::linalg {

Cholesky::Cholesky(const Matrix& a) {
  CSECG_CHECK(a.rows() == a.cols(),
              "Cholesky requires a square matrix, got " << a.rows() << "x"
                                                        << a.cols());
  const std::size_t n = a.rows();
  l_ = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l_(j, k) * l_(j, k);
    if (diag <= 0.0) {
      throw std::runtime_error(
          "Cholesky: matrix is not positive definite (pivot " +
          std::to_string(diag) + " at column " + std::to_string(j) + ")");
    }
    const double ljj = std::sqrt(diag);
    l_(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l_(i, k) * l_(j, k);
      l_(i, j) = acc / ljj;
    }
  }
}

Vector Cholesky::solve(const Vector& b) const {
  CSECG_CHECK(b.size() == l_.rows(), "Cholesky::solve dimension mismatch");
  const Vector y = solve_lower(l_, b);
  // Back substitution with Lᵀ without forming the transpose.
  const std::size_t n = l_.rows();
  Vector x = y;
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= l_(j, ii) * x[j];
    x[ii] = acc / l_(ii, ii);
  }
  return x;
}

Vector solve_lower(const Matrix& l, const Vector& b) {
  CSECG_CHECK(l.rows() == l.cols(), "solve_lower requires square matrix");
  CSECG_CHECK(b.size() == l.rows(), "solve_lower dimension mismatch");
  const std::size_t n = l.rows();
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= l(i, j) * x[j];
    CSECG_CHECK(l(i, i) != 0.0, "solve_lower: zero diagonal at " << i);
    x[i] = acc / l(i, i);
  }
  return x;
}

}  // namespace csecg::linalg
