#include "csecg/linalg/operator.hpp"

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include "csecg/common/check.hpp"
#include "sign_packed.hpp"

namespace csecg::linalg {

LinearOperator::LinearOperator(std::size_t rows, std::size_t cols,
                               ApplyInto forward, ApplyInto adjoint)
    : rows_(rows),
      cols_(cols),
      forward_(std::move(forward)),
      adjoint_(std::move(adjoint)) {
  CSECG_CHECK(rows_ > 0 && cols_ > 0, "LinearOperator needs positive dims");
  CSECG_CHECK(forward_ && adjoint_, "LinearOperator needs both callables");
}

LinearOperator LinearOperator::from_matrix(const Matrix& a) {
  CSECG_CHECK(a.rows() > 0 && a.cols() > 0, "from_matrix: empty matrix");
  if (auto packed = detail::SignPackedMatrix::pack(a)) {
    const auto shared =
        std::make_shared<const detail::SignPackedMatrix>(std::move(*packed));
    LinearOperator op(
        a.rows(), a.cols(),
        [shared](const Vector& x, Vector& y) { shared->multiply_into(x, y); },
        [shared](const Vector& y, Vector& x) {
          shared->multiply_transpose_into(y, x);
        });
    op.packed_ = shared;
    return op;
  }
  // One shared copy of the matrix across both callables.
  const auto shared = std::make_shared<const Matrix>(a);
  return LinearOperator(
      a.rows(), a.cols(),
      [shared](const Vector& x, Vector& y) { multiply_into(*shared, x, y); },
      [shared](const Vector& y, Vector& x) {
        multiply_transpose_into(*shared, y, x);
      });
}

LinearOperator LinearOperator::with_row_mask(
    std::vector<std::uint8_t> keep) const {
  CSECG_CHECK(keep.size() == rows_, "with_row_mask: mask has "
                                        << keep.size() << " entries, expected "
                                        << rows_);
  const auto mask =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(keep));
  if (packed_) {
    return LinearOperator(
        rows_, cols_,
        [packed = packed_, mask](const Vector& x, Vector& y) {
          packed->multiply_into(x, y, *mask);
        },
        [packed = packed_, mask](const Vector& y, Vector& x) {
          packed->multiply_transpose_into(y, x, *mask);
        });
  }
  return LinearOperator(
      rows_, cols_,
      [forward = forward_, mask](const Vector& x, Vector& y) {
        forward(x, y);
        for (std::size_t i = 0; i < y.size(); ++i) {
          if ((*mask)[i] == 0) y[i] = 0.0;
        }
      },
      [adjoint = adjoint_, mask](const Vector& y, Vector& x) {
        // Per-thread copy of y, so the apply allocates nothing once grown.
        // A nested mask assigns this copy to itself, which is harmless.
        thread_local Vector masked;
        masked = y;
        for (std::size_t i = 0; i < masked.size(); ++i) {
          if ((*mask)[i] == 0) masked[i] = 0.0;
        }
        adjoint(masked, x);
      });
}

LinearOperator LinearOperator::identity(std::size_t n) {
  auto id = [](const Vector& x, Vector& y) { y = x; };
  return LinearOperator(n, n, id, id);
}

Vector LinearOperator::apply(const Vector& x) const {
  Vector y;
  apply_into(x, y);
  return y;
}

Vector LinearOperator::apply_adjoint(const Vector& y) const {
  Vector x;
  apply_adjoint_into(y, x);
  return x;
}

void LinearOperator::apply_into(const Vector& x, Vector& y) const {
  CSECG_CHECK(forward_, "LinearOperator::apply on empty operator");
  CSECG_CHECK(x.size() == cols_, "apply dimension mismatch: expected "
                                     << cols_ << ", got " << x.size());
  y.resize(rows_);
  forward_(x, y);
}

void LinearOperator::apply_adjoint_into(const Vector& y, Vector& x) const {
  CSECG_CHECK(adjoint_, "LinearOperator::apply_adjoint on empty operator");
  CSECG_CHECK(y.size() == rows_, "apply_adjoint dimension mismatch: expected "
                                     << rows_ << ", got " << y.size());
  x.resize(cols_);
  adjoint_(y, x);
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
