#include "sign_packed.hpp"

#include <cmath>

#include "csecg/common/check.hpp"

namespace csecg::linalg::detail {
namespace {

/// Rows (Φ) or columns (Φᵀ) summed side by side so that their add chains
/// overlap (4, 8 and 12 time the same at 96×512 and 256×512).
constexpr std::size_t kStreams = 8;

/// Per-thread table scratch, grown once to the largest operator the thread
/// has applied: no allocation per apply in steady state, and nothing shared
/// between pool threads applying one operator.
double* table_scratch(std::size_t count) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < count) scratch.resize(count);
  return scratch.data();
}

/// table[s] = (±v0 ± v1) + (±v2 ± v3), bit k of s negating v_k.  This is
/// the association of one four-row block of multiply_transpose_into, and
/// ±v is exact, so a ±1 block's sum is reproduced bit for bit.
void fill_table(double v0, double v1, double v2, double v3, double* table) {
  const double lo[4] = {v0 + v1, -v0 + v1, v0 - v1, -v0 - v1};
  const double hi[4] = {v2 + v3, -v2 + v3, v2 - v3, -v2 - v3};
  for (std::size_t s = 0; s < 16; ++s) table[s] = lo[s & 3] + hi[s >> 2];
}

/// out[c] = Σ_k tables[16k + signs[c·stride + k]] for k < count, summed
/// in order of k from 0.0.  The C sign streams are interleaved so their
/// add chains overlap.
template <std::size_t C>
void sum_lookups(const double* tables, const std::uint8_t* signs,
                 std::size_t stride, std::size_t count, double* out) {
  double acc[C];
  for (std::size_t c = 0; c < C; ++c) acc[c] = 0.0;
  for (std::size_t k = 0; k < count; ++k, tables += 16) {
    for (std::size_t c = 0; c < C; ++c) {
      acc[c] += tables[signs[c * stride + k]];
    }
  }
  for (std::size_t c = 0; c < C; ++c) out[c] = acc[c];
}

}  // namespace

SignPackedMatrix::SignPackedMatrix(std::size_t m, std::size_t n)
    : m_(m),
      n_(n),
      scale_(n),
      row_stride_((n + 3) / 4),
      by_row_(m * row_stride_),
      column_stride_((m + 3) / 4),
      by_column_(n * column_stride_) {}

std::optional<SignPackedMatrix> SignPackedMatrix::pack(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m == 0 || n == 0) return std::nullopt;
  const double* first = a.row(0);
  for (std::size_t j = 0; j < n; ++j) {
    const double c = std::abs(first[j]);
    if (!(c > 0.0 && std::isfinite(c))) return std::nullopt;
  }
  for (std::size_t i = 1; i < m; ++i) {
    const double* row = a.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      if (std::abs(row[j]) != std::abs(first[j])) return std::nullopt;
    }
  }
  SignPackedMatrix packed(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    packed.scale_[j] = std::abs(first[j]);
    packed.unit_scales_ = packed.unit_scales_ && packed.scale_[j] == 1.0;
  }
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = a.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      if (row[j] > 0.0) continue;
      packed.by_row_[i * packed.row_stride_ + j / 4] |=
          static_cast<std::uint8_t>(1u << (j % 4));
      packed.by_column_[j * packed.column_stride_ + i / 4] |=
          static_cast<std::uint8_t>(1u << (i % 4));
    }
  }
  return packed;
}

void SignPackedMatrix::multiply_into(const Vector& x, Vector& y) const {
  CSECG_CHECK(x.size() == n_, "sign-packed gemv dimension mismatch: A is "
                                  << m_ << "x" << n_ << ", x has "
                                  << x.size());
  y.resize(m_);
  // One table per group of four columns, built from c_j·x_j; a partial
  // last group is padded with zeros (its padding sign bits are clear).
  const std::size_t groups = row_stride_;
  double* tables = table_scratch(16 * groups);
  double v[4];
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t j = 4 * g + k;
      v[k] = j < n_ ? scale_[j] * x[j] : 0.0;
    }
    fill_table(v[0], v[1], v[2], v[3], tables + 16 * g);
  }
  const std::uint8_t* signs = by_row_.data();
  std::size_t i = 0;
  for (; i + kStreams <= m_; i += kStreams) {
    sum_lookups<kStreams>(tables, signs + i * row_stride_, row_stride_,
                          groups, y.data() + i);
  }
  for (; i < m_; ++i) {
    sum_lookups<1>(tables, signs + i * row_stride_, row_stride_, groups,
                   y.data() + i);
  }
}

void SignPackedMatrix::multiply_transpose_into(const Vector& q,
                                               Vector& y) const {
  CSECG_CHECK(q.size() == m_, "sign-packed gemv^T dimension mismatch: A is "
                                  << m_ << "x" << n_ << ", q has "
                                  << q.size());
  y.resize(n_);
  // One table per full block of four rows; the m % 4 tail rows are added
  // one at a time afterwards, as multiply_transpose_into does.
  const std::size_t blocks = m_ / 4;
  const std::size_t tail_rows = m_ % 4;
  const double* qp = q.data();
  double* tables = table_scratch(16 * blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    fill_table(qp[4 * b], qp[4 * b + 1], qp[4 * b + 2], qp[4 * b + 3],
               tables + 16 * b);
  }
  const std::uint8_t* signs = by_column_.data();
  double* yp = y.data();
  std::size_t j = 0;
  for (; j + kStreams <= n_; j += kStreams) {
    sum_lookups<kStreams>(tables, signs + j * column_stride_, column_stride_,
                          blocks, yp + j);
  }
  for (; j < n_; ++j) {
    sum_lookups<1>(tables, signs + j * column_stride_, column_stride_,
                   blocks, yp + j);
  }
  if (tail_rows > 0) {
    const double* q_tail = qp + 4 * blocks;
    for (j = 0; j < n_; ++j) {
      const unsigned tail = signs[j * column_stride_ + blocks];
      for (std::size_t t = 0; t < tail_rows; ++t) {
        yp[j] += ((tail >> t) & 1u) != 0 ? -q_tail[t] : q_tail[t];
      }
    }
  }
  if (!unit_scales_) {
    for (j = 0; j < n_; ++j) yp[j] *= scale_[j];
  }
}

}  // namespace csecg::linalg::detail
