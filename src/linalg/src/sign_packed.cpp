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

/// out[c] += Σ_k tables[16k + signs[c·stride + k]] for k < count, added
/// in order of k.  The C sign streams are interleaved so their add chains
/// overlap.
template <std::size_t C>
void add_lookups(const double* tables, const std::uint8_t* signs,
                 std::size_t stride, std::size_t count, double* out) {
  double acc[C];
  for (std::size_t c = 0; c < C; ++c) acc[c] = out[c];
  for (std::size_t k = 0; k < count; ++k, tables += 16) {
    for (std::size_t c = 0; c < C; ++c) {
      acc[c] += tables[signs[c * stride + k]];
    }
  }
  for (std::size_t c = 0; c < C; ++c) out[c] = acc[c];
}

/// add_lookups over `outputs` consecutive sign streams, kStreams at a time.
void add_lookups_run(const double* tables, const std::uint8_t* signs,
                     std::size_t stride, std::size_t count,
                     std::size_t outputs, double* out) {
  std::size_t c = 0;
  for (; c + kStreams <= outputs; c += kStreams) {
    add_lookups<kStreams>(tables, signs + c * stride, stride, count, out + c);
  }
  for (; c < outputs; ++c) {
    add_lookups<1>(tables, signs + c * stride, stride, count, out + c);
  }
}

/// Whether row i survives the mask; an empty mask keeps every row.
bool kept(std::span<const std::uint8_t> keep, std::size_t i) {
  return keep.empty() || keep[i] != 0;
}

/// Calls visit(first, last) for each maximal run [first, last) of indices
/// below `count` for which live(i) holds, in increasing order.
template <typename Live, typename Visit>
void for_each_kept_run(std::size_t count, Live live, Visit visit) {
  for (std::size_t i = 0; i < count;) {
    if (!live(i)) {
      ++i;
      continue;
    }
    const std::size_t first = i;
    while (i < count && live(i)) ++i;
    visit(first, i);
  }
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

void SignPackedMatrix::multiply_into(
    const Vector& x, Vector& y, std::span<const std::uint8_t> keep) const {
  CSECG_CHECK(x.size() == n_, "sign-packed gemv dimension mismatch: A is "
                                  << m_ << "x" << n_ << ", x has "
                                  << x.size());
  CSECG_CHECK(keep.empty() || keep.size() == m_,
              "sign-packed gemv: row mask has " << keep.size()
                                                << " entries, expected "
                                                << m_);
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
  // Each run of kept rows is summed kStreams rows at a time; a masked row
  // costs nothing but its zero.
  const std::uint8_t* signs = by_row_.data();
  for (std::size_t i = 0; i < m_; ++i) y[i] = 0.0;
  for_each_kept_run(
      m_, [keep](std::size_t i) { return kept(keep, i); },
      [&](std::size_t first, std::size_t last) {
        add_lookups_run(tables, signs + first * row_stride_, row_stride_,
                        groups, last - first, y.data() + first);
      });
}

void SignPackedMatrix::multiply_transpose_into(
    const Vector& q, Vector& y, std::span<const std::uint8_t> keep) const {
  CSECG_CHECK(q.size() == m_, "sign-packed gemv^T dimension mismatch: A is "
                                  << m_ << "x" << n_ << ", q has "
                                  << q.size());
  CSECG_CHECK(keep.empty() || keep.size() == m_,
              "sign-packed gemv^T: row mask has " << keep.size()
                                                  << " entries, expected "
                                                  << m_);
  y.resize(n_);
  // Every column sums its blocks of four rows in block order, then the
  // m % 4 tail rows one at a time, as multiply_transpose_into does.  Each
  // block's table is built from q with masked rows read as 0.  A wholly
  // masked block's table would hold only ±0, and adding ±0 never changes
  // a sum that started at +0.0, so such blocks are skipped outright and
  // the rest run one run of consecutive live blocks at a time.
  const std::size_t blocks = m_ / 4;
  const std::size_t tail_rows = m_ % 4;
  const double* qp = q.data();
  double* tables = table_scratch(16 * blocks);
  const std::uint8_t* signs = by_column_.data();
  double* yp = y.data();
  for (std::size_t j = 0; j < n_; ++j) yp[j] = 0.0;
  for_each_kept_run(
      blocks,
      [keep](std::size_t b) {
        return kept(keep, 4 * b) || kept(keep, 4 * b + 1) ||
               kept(keep, 4 * b + 2) || kept(keep, 4 * b + 3);
      },
      [&](std::size_t first, std::size_t last) {
        double v[4];
        for (std::size_t b = first; b < last; ++b) {
          for (std::size_t k = 0; k < 4; ++k) {
            v[k] = kept(keep, 4 * b + k) ? qp[4 * b + k] : 0.0;
          }
          fill_table(v[0], v[1], v[2], v[3], tables + 16 * b);
        }
        add_lookups_run(tables + 16 * first, signs + first, column_stride_,
                        last - first, n_, yp);
      });
  for (std::size_t t = 0; t < tail_rows; ++t) {
    const std::size_t row = 4 * blocks + t;
    if (!kept(keep, row)) continue;
    const double value = qp[row];
    for (std::size_t j = 0; j < n_; ++j) {
      const unsigned tail = signs[j * column_stride_ + blocks];
      yp[j] += ((tail >> t) & 1u) != 0 ? -value : value;
    }
  }
  if (!unit_scales_) {
    for (std::size_t j = 0; j < n_; ++j) yp[j] *= scale_[j];
  }
}

}  // namespace csecg::linalg::detail
