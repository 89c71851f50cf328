// Sign-packed storage and kernels for matrices whose columns are ±c_j.
//
// The RMPI chip matrix is exactly ±1 (±w_j with integrator leakage), so
// its product with a vector needs no multiplies: every group of four ±1
// entries selects one of the 16 signed sums of four inputs.  The kernels
// build those 16-entry tables from the input vector, then each output is a
// run of table lookups, each indexed by one byte holding a group's four
// sign bits.  Internal to LinearOperator::from_matrix, which picks this
// representation whenever pack() succeeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "csecg/linalg/matrix.hpp"
#include "csecg/linalg/vector.hpp"

namespace csecg::linalg::detail {

class SignPackedMatrix {
 public:
  /// Packs `a` if every column j is ±c_j for one finite c_j > 0;
  /// std::nullopt otherwise (zero entries, mixed magnitudes, NaN).
  static std::optional<SignPackedMatrix> pack(const Matrix& a);

  /// y ← A·x (resized to m).  Sums in a different order from
  /// linalg::multiply_into, so results agree to rounding only.  A non-empty
  /// `keep` (m entries) masks rows out: a row whose entry is 0 is skipped
  /// and reads 0, and every kept row is bit-identical to the full product.
  void multiply_into(const Vector& x, Vector& y,
                     std::span<const std::uint8_t> keep = {}) const;

  /// y ← Aᵀ·q (resized to n).  For unit scales (a ±1 matrix) the
  /// result is bit-identical to linalg::multiply_transpose_into.  A
  /// non-empty `keep` (m entries) reads q as 0 on the rows whose entry is
  /// 0 and skips every four-row block and tail row that is wholly masked;
  /// the result is bit-identical to zeroing those entries of q first.
  void multiply_transpose_into(const Vector& q, Vector& y,
                               std::span<const std::uint8_t> keep = {}) const;

 private:
  SignPackedMatrix(std::size_t m, std::size_t n);

  std::size_t m_ = 0;
  std::size_t n_ = 0;
  std::vector<double> scale_;  ///< c_j, one per column.
  bool unit_scales_ = true;    ///< Every c_j is 1 (a ±1 matrix).
  /// Φ layout: byte g of row i (row_stride_ bytes per row) holds the signs
  /// of columns 4g..4g+3, bit k set = column 4g+k negative.
  std::size_t row_stride_ = 0;
  std::vector<std::uint8_t> by_row_;
  /// Φᵀ layout: byte b of column j (column_stride_ bytes per column) holds
  /// the signs of rows 4b..4b+3; byte m/4 holds the m % 4 tail rows.
  std::size_t column_stride_ = 0;
  std::vector<std::uint8_t> by_column_;
};

}  // namespace csecg::linalg::detail
