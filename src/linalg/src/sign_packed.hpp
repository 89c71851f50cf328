// Sign-packed storage and kernels for matrices whose columns are ±c_j.
//
// The RMPI chip matrix is exactly ±1 (±w_j with integrator leakage), so
// its product with a vector needs no multiplies: every group of four ±1
// entries selects one of the 16 signed sums of four inputs.  The kernels
// build those 16-entry tables from the input vector, then each output is a
// run of table lookups, each indexed by one byte holding a group's four
// sign bits.  Both products run one lookup kernel over one layout: table
// k's sign bytes for every output sit side by side, so eight outputs'
// lookups are one AVX-512 two-source permute where the CPU has AVX-512F
// (DESIGN.md §6).  Internal to LinearOperator::from_matrix, which picks
// this representation whenever pack() succeeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "csecg/linalg/matrix.hpp"
#include "csecg/linalg/vector.hpp"

namespace csecg::linalg::detail {

/// The table-lookup kernels a SignPackedMatrix can run on.  Both give the
/// same bits for every input; kAvx512 needs a CPU with AVX-512F.
enum class LookupKernel { kPortable, kAvx512 };

/// kAvx512 where this CPU supports AVX-512F, else kPortable; asked of the
/// CPU once per process.
LookupKernel selected_kernel();

/// Whether this CPU (and this build) can run `kernel`.
bool kernel_supported(LookupKernel kernel);

/// "avx512" or "portable".
const char* kernel_name(LookupKernel kernel);

class SignPackedMatrix {
 public:
  /// Packs `a` if every column j is ±c_j for one finite c_j > 0;
  /// std::nullopt otherwise (zero entries, mixed magnitudes, NaN).  The
  /// products run on `kernel`, which must be supported; callers other than
  /// the kernel tests and benchmarks take the default.
  static std::optional<SignPackedMatrix> pack(
      const Matrix& a, LookupKernel kernel = selected_kernel());

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
  SignPackedMatrix(std::size_t m, std::size_t n, LookupKernel kernel);

  std::size_t m_ = 0;
  std::size_t n_ = 0;
  LookupKernel kernel_ = LookupKernel::kPortable;
  std::vector<double> scale_;  ///< c_j, one per column.
  bool unit_scales_ = true;    ///< Every c_j is 1 (a ±1 matrix).
  /// Φ layout, group-major: byte g·group_stride_ + i holds row i's signs
  /// of columns 4g..4g+3, bit k set = column 4g+k negative.
  std::size_t group_stride_ = 0;
  std::vector<std::uint8_t> by_group_;
  /// Φᵀ layout, block-major: byte b·block_stride_ + j holds column j's
  /// signs of rows 4b..4b+3; block m/4 holds the m % 4 tail rows.
  std::size_t block_stride_ = 0;
  std::vector<std::uint8_t> by_block_;
};

}  // namespace csecg::linalg::detail
