#include "csecg/linalg/matrix.hpp"

#include <cmath>
#include <stdexcept>

#include "csecg/common/check.hpp"

namespace csecg::linalg {

double& Matrix::at(std::size_t i, std::size_t j) {
  if (i >= rows_ || j >= cols_) {
    throw std::out_of_range("Matrix::at index out of range");
  }
  return (*this)(i, j);
}

double Matrix::at(std::size_t i, std::size_t j) const {
  if (i >= rows_ || j >= cols_) {
    throw std::out_of_range("Matrix::at index out of range");
  }
  return (*this)(i, j);
}

Matrix Matrix::identity(std::size_t n) {
  Matrix eye(n, n);
  for (std::size_t i = 0; i < n; ++i) eye(i, i) = 1.0;
  return eye;
}

namespace {

/// Dot product with four independent accumulators: breaks the serial
/// dependency chain of a single running sum so the FPU pipelines (and the
/// auto-vectorizer) can overlap the multiply-adds.
inline double dot4(const double* row, const double* x, std::size_t n) {
  double acc0 = 0.0;
  double acc1 = 0.0;
  double acc2 = 0.0;
  double acc3 = 0.0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    acc0 += row[j] * x[j];
    acc1 += row[j + 1] * x[j + 1];
    acc2 += row[j + 2] * x[j + 2];
    acc3 += row[j + 3] * x[j + 3];
  }
  for (; j < n; ++j) acc0 += row[j] * x[j];
  return (acc0 + acc1) + (acc2 + acc3);
}

}  // namespace

void multiply_into(const Matrix& a, const Vector& x, Vector& y) {
  CSECG_CHECK(x.size() == a.cols(), "gemv dimension mismatch: A is "
                                        << a.rows() << "x" << a.cols()
                                        << ", x has " << x.size());
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  y.resize(m);
  const double* xp = x.data();
  // Row blocks of four: x is streamed once per block instead of once per
  // row, and each row keeps its own four-way unrolled accumulators.
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* r0 = a.row(i);
    const double* r1 = a.row(i + 1);
    const double* r2 = a.row(i + 2);
    const double* r3 = a.row(i + 3);
    double y0 = 0.0;
    double y1 = 0.0;
    double y2 = 0.0;
    double y3 = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double xj = xp[j];
      y0 += r0[j] * xj;
      y1 += r1[j] * xj;
      y2 += r2[j] * xj;
      y3 += r3[j] * xj;
    }
    y[i] = y0;
    y[i + 1] = y1;
    y[i + 2] = y2;
    y[i + 3] = y3;
  }
  for (; i < m; ++i) y[i] = dot4(a.row(i), xp, n);
}

Vector multiply(const Matrix& a, const Vector& x) {
  Vector y;
  multiply_into(a, x, y);
  return y;
}

void multiply_transpose_into(const Matrix& a, const Vector& x, Vector& y) {
  CSECG_CHECK(x.size() == a.rows(), "gemv^T dimension mismatch: A is "
                                        << a.rows() << "x" << a.cols()
                                        << ", x has " << x.size());
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  y.resize(n);
  double* yp = y.data();
  for (std::size_t j = 0; j < n; ++j) yp[j] = 0.0;
  // Row blocks of four: one branch-free pass over y per block (4× less
  // write traffic than the row-at-a-time axpy sweep).
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* r0 = a.row(i);
    const double* r1 = a.row(i + 1);
    const double* r2 = a.row(i + 2);
    const double* r3 = a.row(i + 3);
    const double x0 = x[i];
    const double x1 = x[i + 1];
    const double x2 = x[i + 2];
    const double x3 = x[i + 3];
    for (std::size_t j = 0; j < n; ++j) {
      yp[j] += (r0[j] * x0 + r1[j] * x1) + (r2[j] * x2 + r3[j] * x3);
    }
  }
  for (; i < m; ++i) {
    const double* row = a.row(i);
    const double xi = x[i];
    for (std::size_t j = 0; j < n; ++j) yp[j] += row[j] * xi;
  }
}

Vector multiply_transpose(const Matrix& a, const Vector& x) {
  Vector y;
  multiply_transpose_into(a, x, y);
  return y;
}

Matrix multiply(const Matrix& a, const Matrix& b) {
  CSECG_CHECK(a.cols() == b.rows(), "gemm dimension mismatch: "
                                        << a.rows() << "x" << a.cols()
                                        << " times " << b.rows() << "x"
                                        << b.cols());
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.row(k);
      double* crow = c.row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

Matrix gram(const Matrix& a) {
  Matrix g(a.cols(), a.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double* row = a.row(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double v = row[i];
      if (v == 0.0) continue;
      double* grow = g.row(i);
      for (std::size_t j = i; j < a.cols(); ++j) grow[j] += v * row[j];
    }
  }
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  }
  return g;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  CSECG_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
              "max_abs_diff shape mismatch");
  double acc = 0.0;
  const double* pa = a.data();
  const double* pb = b.data();
  const std::size_t total = a.rows() * a.cols();
  for (std::size_t i = 0; i < total; ++i) {
    acc = std::max(acc, std::abs(pa[i] - pb[i]));
  }
  return acc;
}

void normalize_columns(Matrix& a) noexcept {
  for (std::size_t j = 0; j < a.cols(); ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) acc += a(i, j) * a(i, j);
    const double norm = std::sqrt(acc);
    if (norm == 0.0) continue;
    const double inv = 1.0 / norm;
    for (std::size_t i = 0; i < a.rows(); ++i) a(i, j) *= inv;
  }
}

}  // namespace csecg::linalg
