#include "csecg/linalg/operator.hpp"

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include "csecg/common/check.hpp"
#include "sign_packed.hpp"

namespace csecg::linalg {

LinearOperator::LinearOperator(std::size_t rows, std::size_t cols,
                               Apply forward, Apply adjoint)
    : rows_(rows),
      cols_(cols),
      forward_(std::move(forward)),
      adjoint_(std::move(adjoint)) {
  CSECG_CHECK(rows_ > 0 && cols_ > 0, "LinearOperator needs positive dims");
  CSECG_CHECK(forward_ && adjoint_, "LinearOperator needs both callables");
}

LinearOperator::LinearOperator(std::size_t rows, std::size_t cols,
                               Apply forward, Apply adjoint,
                               ApplyInto forward_into, ApplyInto adjoint_into)
    : LinearOperator(rows, cols, std::move(forward), std::move(adjoint)) {
  forward_into_ = std::move(forward_into);
  adjoint_into_ = std::move(adjoint_into);
  CSECG_CHECK(forward_into_ && adjoint_into_,
              "LinearOperator needs both destination callables");
}

LinearOperator LinearOperator::from_matrix(const Matrix& a) {
  CSECG_CHECK(a.rows() > 0 && a.cols() > 0, "from_matrix: empty matrix");
  if (auto packed = detail::SignPackedMatrix::pack(a)) {
    const auto shared =
        std::make_shared<const detail::SignPackedMatrix>(std::move(*packed));
    return LinearOperator(
        a.rows(), a.cols(),
        [shared](const Vector& x) {
          Vector y;
          shared->multiply_into(x, y);
          return y;
        },
        [shared](const Vector& y) {
          Vector x;
          shared->multiply_transpose_into(y, x);
          return x;
        },
        [shared](const Vector& x, Vector& y) { shared->multiply_into(x, y); },
        [shared](const Vector& y, Vector& x) {
          shared->multiply_transpose_into(y, x);
        });
  }
  // One shared copy of the matrix across all four callables.
  const auto shared = std::make_shared<const Matrix>(a);
  return LinearOperator(
      a.rows(), a.cols(),
      [shared](const Vector& x) { return multiply(*shared, x); },
      [shared](const Vector& y) { return multiply_transpose(*shared, y); },
      [shared](const Vector& x, Vector& y) { multiply_into(*shared, x, y); },
      [shared](const Vector& y, Vector& x) {
        multiply_transpose_into(*shared, y, x);
      });
}

LinearOperator LinearOperator::identity(std::size_t n) {
  auto id = [](const Vector& x) { return x; };
  auto id_into = [](const Vector& x, Vector& y) { y = x; };
  return LinearOperator(n, n, id, id, id_into, id_into);
}

LinearOperator LinearOperator::vstack(const LinearOperator& top,
                                      const LinearOperator& bottom) {
  CSECG_CHECK(top.cols() == bottom.cols(),
              "vstack column mismatch: " << top.cols() << " vs "
                                         << bottom.cols());
  const std::size_t m1 = top.rows();
  const std::size_t m2 = bottom.rows();
  const std::size_t n = top.cols();
  auto forward = [top, bottom, m1, m2](const Vector& x) {
    const Vector y1 = top.apply(x);
    const Vector y2 = bottom.apply(x);
    Vector y(m1 + m2);
    for (std::size_t i = 0; i < m1; ++i) y[i] = y1[i];
    for (std::size_t i = 0; i < m2; ++i) y[m1 + i] = y2[i];
    return y;
  };
  auto adjoint = [top, bottom, m1, m2](const Vector& y) {
    Vector y1(m1);
    Vector y2(m2);
    for (std::size_t i = 0; i < m1; ++i) y1[i] = y[i];
    for (std::size_t i = 0; i < m2; ++i) y2[i] = y[m1 + i];
    Vector x = top.apply_adjoint(y1);
    x += bottom.apply_adjoint(y2);
    return x;
  };
  // Destination variants still need split/merge temporaries (the operand
  // interfaces take whole vectors) but skip the final stacked copy.
  auto forward_into = [top, bottom, m1, m2](const Vector& x, Vector& y) {
    y.resize(m1 + m2);
    Vector part;
    top.apply_into(x, part);
    for (std::size_t i = 0; i < m1; ++i) y[i] = part[i];
    bottom.apply_into(x, part);
    for (std::size_t i = 0; i < m2; ++i) y[m1 + i] = part[i];
  };
  auto adjoint_into = [top, bottom, m1, m2](const Vector& y, Vector& x) {
    Vector y1(m1);
    for (std::size_t i = 0; i < m1; ++i) y1[i] = y[i];
    top.apply_adjoint_into(y1, x);
    Vector y2(m2);
    for (std::size_t i = 0; i < m2; ++i) y2[i] = y[m1 + i];
    Vector part;
    bottom.apply_adjoint_into(y2, part);
    x += part;
  };
  return LinearOperator(m1 + m2, n, forward, adjoint, forward_into,
                        adjoint_into);
}

LinearOperator LinearOperator::compose(const LinearOperator& other) const {
  CSECG_CHECK(cols() == other.rows(),
              "compose dimension mismatch: " << cols() << " vs "
                                             << other.rows());
  const LinearOperator outer = *this;
  const LinearOperator inner = other;
  return LinearOperator(
      outer.rows(), inner.cols(),
      [outer, inner](const Vector& x) { return outer.apply(inner.apply(x)); },
      [outer, inner](const Vector& y) {
        return inner.apply_adjoint(outer.apply_adjoint(y));
      },
      [outer, inner](const Vector& x, Vector& y) {
        Vector mid;
        inner.apply_into(x, mid);
        outer.apply_into(mid, y);
      },
      [outer, inner](const Vector& y, Vector& x) {
        Vector mid;
        outer.apply_adjoint_into(y, mid);
        inner.apply_adjoint_into(mid, x);
      });
}

Vector LinearOperator::apply(const Vector& x) const {
  CSECG_CHECK(forward_, "LinearOperator::apply on empty operator");
  CSECG_CHECK(x.size() == cols_, "apply dimension mismatch: expected "
                                     << cols_ << ", got " << x.size());
  return forward_(x);
}

Vector LinearOperator::apply_adjoint(const Vector& y) const {
  CSECG_CHECK(adjoint_, "LinearOperator::apply_adjoint on empty operator");
  CSECG_CHECK(y.size() == rows_, "apply_adjoint dimension mismatch: expected "
                                     << rows_ << ", got " << y.size());
  return adjoint_(y);
}

void LinearOperator::apply_into(const Vector& x, Vector& y) const {
  CSECG_CHECK(forward_, "LinearOperator::apply_into on empty operator");
  CSECG_CHECK(x.size() == cols_, "apply_into dimension mismatch: expected "
                                     << cols_ << ", got " << x.size());
  if (forward_into_) {
    y.resize(rows_);
    forward_into_(x, y);
  } else {
    y = forward_(x);
  }
}

void LinearOperator::apply_adjoint_into(const Vector& y, Vector& x) const {
  CSECG_CHECK(adjoint_, "LinearOperator::apply_adjoint_into on empty operator");
  CSECG_CHECK(y.size() == rows_,
              "apply_adjoint_into dimension mismatch: expected "
                  << rows_ << ", got " << y.size());
  if (adjoint_into_) {
    x.resize(cols_);
    adjoint_into_(y, x);
  } else {
    x = adjoint_(y);
  }
}

double operator_norm_estimate(const LinearOperator& op, int iterations) {
  CSECG_CHECK(iterations > 0, "operator_norm_estimate needs iterations > 0");
  // Deterministic quasi-random start vector.
  Vector v(op.cols());
  std::uint64_t s = 0x853C49E6748FEA9BULL;
  for (std::size_t i = 0; i < v.size(); ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    v[i] = static_cast<double>(s >> 40) / 16777216.0 - 0.5;
  }
  double nv = norm2(v);
  if (nv == 0.0) {
    v[0] = 1.0;
    nv = 1.0;
  }
  v *= 1.0 / nv;
  double sigma = 0.0;
  for (int it = 0; it < iterations; ++it) {
    Vector w = op.apply_adjoint(op.apply(v));
    const double nw = norm2(w);
    if (nw == 0.0) return 0.0;
    sigma = std::sqrt(nw);
    w *= 1.0 / nw;
    v = w;
  }
  return sigma;
}

CgResult conjugate_gradient(const LinearOperator& a, const Vector& b,
                            int max_iterations, double tol) {
  CSECG_CHECK(a.rows() == a.cols(), "conjugate_gradient requires square op");
  CSECG_CHECK(b.size() == a.rows(), "conjugate_gradient dimension mismatch");
  CgResult out;
  out.x = Vector(b.size());
  Vector r = b;
  Vector p = r;
  double rs = norm2_squared(r);
  const double bnorm = std::max(norm2(b), 1e-300);
  for (int it = 0; it < max_iterations; ++it) {
    if (std::sqrt(rs) / bnorm <= tol) {
      out.converged = true;
      break;
    }
    const Vector ap = a.apply(p);
    const double pap = dot(p, ap);
    if (pap <= 0.0) break;  // Not SPD (or numerical breakdown).
    const double alpha = rs / pap;
    axpy(alpha, p, out.x);
    axpy(-alpha, ap, r);
    const double rs_next = norm2_squared(r);
    const double beta = rs_next / rs;
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = r[i] + beta * p[i];
    rs = rs_next;
    out.iterations = it + 1;
  }
  out.residual_norm = std::sqrt(rs);
  if (std::sqrt(rs) / bnorm <= tol) out.converged = true;
  return out;
}

double adjoint_mismatch(const LinearOperator& op, int probes,
                        unsigned long long seed) {
  CSECG_CHECK(probes > 0, "adjoint_mismatch needs probes > 0");
  std::uint64_t s = seed ^ 0x2545F4914F6CDD1DULL;
  auto next_unit = [&s]() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return static_cast<double>(s >> 11) * 0x1.0p-53 - 0.5;
  };
  double worst = 0.0;
  for (int p = 0; p < probes; ++p) {
    Vector x(op.cols());
    Vector y(op.rows());
    for (auto& v : x) v = next_unit();
    for (auto& v : y) v = next_unit();
    const double lhs = dot(op.apply(x), y);
    const double rhs = dot(x, op.apply_adjoint(y));
    const double scale =
        std::max({std::abs(lhs), std::abs(rhs), 1e-12});
    worst = std::max(worst, std::abs(lhs - rhs) / scale);
  }
  return worst;
}

}  // namespace csecg::linalg
