#include "sign_packed.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "csecg/common/check.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define CSECG_SIGN_PACKED_AVX512 1
#include <immintrin.h>
#endif

namespace csecg::linalg::detail {
namespace {

/// Outputs summed side by side: the portable kernel interleaves this many
/// add chains (4, 8 and 12 time the same at 96×512 and 256×512), and one
/// AVX-512 lane vector holds this many outputs.
constexpr std::size_t kStreams = 8;

/// Bytes per table in a sign layout for `outputs` outputs: a multiple of
/// kStreams with at least kStreams − 1 spare, so the eight sign bytes a
/// lane vector loads from any output below `outputs` lie inside the
/// stride, whatever output a run starts at.
std::size_t padded_stride(std::size_t outputs) {
  return (outputs + 2 * kStreams - 2) / kStreams * kStreams;
}

/// Per-thread scratch for the tables and the values they are built from,
/// grown once to the largest operator the thread has applied: no
/// allocation per apply in steady state, and nothing shared between pool
/// threads applying one operator.  Aligned to 64 bytes, so each 16-entry
/// table is two whole cache lines.
double* scratch(std::size_t count) {
  constexpr std::size_t kAlign = 64 / sizeof(double);
  thread_local std::vector<double> buffer;
  if (buffer.size() < count + kAlign) buffer.resize(count + kAlign);
  const auto address = reinterpret_cast<std::uintptr_t>(buffer.data());
  const std::size_t skip =
      (kAlign - address / sizeof(double) % kAlign) % kAlign;
  return buffer.data() + skip;
}

/// table[s] = (±v0 ± v1) + (±v2 ± v3), bit k of s negating v_k.  This is
/// the association of one four-row block of multiply_transpose_into, and
/// ±v is exact, so a ±1 block's sum is reproduced bit for bit.
void fill_table(double v0, double v1, double v2, double v3, double* table) {
  const double lo[4] = {v0 + v1, -v0 + v1, v0 - v1, -v0 - v1};
  const double hi[4] = {v2 + v3, -v2 + v3, v2 - v3, -v2 - v3};
  for (std::size_t s = 0; s < 16; ++s) table[s] = lo[s & 3] + hi[s >> 2];
}

/// The portable table builder: table k (16 entries at tables + 16k) from
/// values 4k..4k+3, for k < count.
void fill_tables(const double* values, std::size_t count, double* tables) {
  for (std::size_t k = 0; k < count; ++k, values += 4, tables += 16) {
    fill_table(values[0], values[1], values[2], values[3], tables);
  }
}

/// out[c] += Σ_k tables[16k + signs[k·stride + c]] for c < C and
/// k < count, each output adding its lookups in order of k.  Eight
/// outputs' sign bytes are one 8-byte load on little-endian hosts, which
/// keeps this layout's portable kernel at the per-stream layout's speed.
template <std::size_t C>
void add_lookups(const double* tables, const std::uint8_t* signs,
                 std::size_t stride, std::size_t count, double* out) {
  double acc[C];
  for (std::size_t c = 0; c < C; ++c) acc[c] = out[c];
  for (std::size_t k = 0; k < count; ++k, tables += 16, signs += stride) {
    if constexpr (C == 8 && std::endian::native == std::endian::little) {
      std::uint64_t bytes = 0;
      std::memcpy(&bytes, signs, sizeof bytes);
      for (std::size_t c = 0; c < C; ++c) {
        acc[c] += tables[(bytes >> (8 * c)) & 0xFFu];
      }
    } else {
      for (std::size_t c = 0; c < C; ++c) acc[c] += tables[signs[c]];
    }
  }
  for (std::size_t c = 0; c < C; ++c) out[c] = acc[c];
}

/// The portable lookup kernel: add_lookups over `outputs` consecutive
/// outputs, kStreams at a time.
void add_lookups_run(const double* tables, const std::uint8_t* signs,
                     std::size_t stride, std::size_t count,
                     std::size_t outputs, double* out) {
  std::size_t c = 0;
  for (; c + kStreams <= outputs; c += kStreams) {
    add_lookups<kStreams>(tables, signs + c, stride, count, out + c);
  }
  for (; c < outputs; ++c) {
    add_lookups<1>(tables, signs + c, stride, count, out + c);
  }
}

#ifdef CSECG_SIGN_PACKED_AVX512

// The AVX-512 kernel does what fill_tables and add_lookups do, eight
// entries or outputs per vector: every lane adds the same two operands in
// the same order, with vaddpd rounding as addsd does, and negates by
// flipping the sign bit as unary minus does (a − b is a + (−b) bit for
// bit), so every table entry and output is bit-identical to the portable
// kernel's.  It only permutes, negates and adds; column scales are applied
// outside it, so no multiply exists to contract into an FMA.  Intrinsics
// whose GCC 12 form merges into an undefined vector (unmasked shifts and
// one-source permutes, 256→512 casts) trip -Wmaybe-uninitialized, so
// their maskz or two-source forms stand in.

/// Lanes of `v` picked by `index` (bits 2..0 of each lane).
__attribute__((target("avx512f"))) __m512d pick(__m512d v, __m512i index) {
  return _mm512_permutex2var_pd(v, index, v);
}

/// fill_tables on AVX-512: the eight half sums ±v0 ± v1 and ±v2 ± v3 in
/// one add, then each half of the table in one more.
__attribute__((target("avx512f"))) void fill_tables_avx512(
    const double* values, std::size_t count, double* tables) {
  const long long minus = static_cast<long long>(1ULL << 63);
  // halves = [v0 + v1, −v0 + v1, v0 − v1, −v0 − v1, (same for v2, v3)].
  const __m512i first = _mm512_set_epi64(2, 2, 2, 2, 0, 0, 0, 0);
  const __m512i second = _mm512_set_epi64(3, 3, 3, 3, 1, 1, 1, 1);
  const __m512i negate_first =
      _mm512_set_epi64(minus, 0, minus, 0, minus, 0, minus, 0);
  const __m512i negate_second =
      _mm512_set_epi64(minus, minus, 0, 0, minus, minus, 0, 0);
  // table[s] = halves[s & 3] + halves[4 + (s >> 2)].
  const __m512i low = _mm512_set_epi64(3, 2, 1, 0, 3, 2, 1, 0);
  const __m512i high_first = _mm512_set_epi64(5, 5, 5, 5, 4, 4, 4, 4);
  const __m512i high_second = _mm512_set_epi64(7, 7, 7, 7, 6, 6, 6, 6);
  for (std::size_t k = 0; k < count; ++k, values += 4, tables += 16) {
    const __m512d v = _mm512_maskz_loadu_pd(0x0F, values);
    const __m512d a = _mm512_castsi512_pd(_mm512_xor_si512(
        _mm512_castpd_si512(pick(v, first)), negate_first));
    const __m512d b = _mm512_castsi512_pd(_mm512_xor_si512(
        _mm512_castpd_si512(pick(v, second)), negate_second));
    const __m512d halves = _mm512_add_pd(a, b);
    const __m512d lo = pick(halves, low);
    _mm512_store_pd(tables, _mm512_add_pd(lo, pick(halves, high_first)));
    _mm512_store_pd(tables + 8,
                    _mm512_add_pd(lo, pick(halves, high_second)));
  }
}

/// V lane vectors (8·V outputs) of add_lookups; `last` masks the lanes of
/// the last vector that are outputs.  Lanes past the outputs read the sign
/// bytes of neighbouring outputs (inside the padded stride) and are
/// neither loaded from nor stored to `out`.
template <std::size_t V>
__attribute__((target("avx512f"))) void add_lookups_avx512(
    const double* tables, const std::uint8_t* signs, std::size_t stride,
    std::size_t count, __mmask8 last, double* out) {
  // vpermt2pd reads only bits 3..0 of each 64-bit index, so shifting the
  // eight sign bytes right by 8·lane puts lane l's byte where it is read,
  // without the cross-lane byte expansion.
  const __m512i shifts = _mm512_set_epi64(56, 48, 40, 32, 24, 16, 8, 0);
  __m512d acc[V];
  for (std::size_t v = 0; v < V; ++v) {
    acc[v] = _mm512_maskz_loadu_pd(v + 1 == V ? last : 0xFF, out + 8 * v);
  }
  for (std::size_t k = 0; k < count; ++k, tables += 16, signs += stride) {
    const __m512d lo = _mm512_load_pd(tables);
    const __m512d hi = _mm512_load_pd(tables + 8);
    for (std::size_t v = 0; v < V; ++v) {
      long long bytes = 0;
      __builtin_memcpy(&bytes, signs + 8 * v, sizeof bytes);
      const __m512i index =
          _mm512_maskz_srlv_epi64(0xFF, _mm512_set1_epi64(bytes), shifts);
      acc[v] = _mm512_add_pd(acc[v], _mm512_permutex2var_pd(lo, index, hi));
    }
  }
  for (std::size_t v = 0; v < V; ++v) {
    _mm512_mask_storeu_pd(out + 8 * v, v + 1 == V ? last : 0xFF, acc[v]);
  }
}

/// The AVX-512 lookup kernel, with add_lookups_run's contract.
__attribute__((target("avx512f"))) void add_lookups_run_avx512(
    const double* tables, const std::uint8_t* signs, std::size_t stride,
    std::size_t count, std::size_t outputs, double* out) {
  // Four accumulators per pass time best at 96×512 and 256×512 (two and
  // eight are slower); the last pass below dispatches on 1..kVectors.
  constexpr std::size_t kVectors = 4;
  constexpr std::size_t kWidth = kVectors * kStreams;
  // Whole passes of kWidth outputs, then one last pass of 1..kWidth.
  std::size_t c = 0;
  for (; outputs - c > kWidth; c += kWidth) {
    add_lookups_avx512<kVectors>(tables, signs + c, stride, count, 0xFF,
                                 out + c);
  }
  const std::size_t rest = outputs - c;
  const std::size_t lanes = (rest - 1) % kStreams + 1;
  const auto last = static_cast<__mmask8>((1u << lanes) - 1u);
  switch ((rest + kStreams - 1) / kStreams) {
    case 1:
      add_lookups_avx512<1>(tables, signs + c, stride, count, last, out + c);
      break;
    case 2:
      add_lookups_avx512<2>(tables, signs + c, stride, count, last, out + c);
      break;
    case 3:
      add_lookups_avx512<3>(tables, signs + c, stride, count, last, out + c);
      break;
    default:
      add_lookups_avx512<4>(tables, signs + c, stride, count, last, out + c);
      break;
  }
}

#endif  // CSECG_SIGN_PACKED_AVX512

/// One kernel's two steps: build the tables, then sum the lookups.
struct Steps {
  void (*fill)(const double* values, std::size_t count, double* tables);
  void (*run)(const double* tables, const std::uint8_t* signs,
              std::size_t stride, std::size_t count, std::size_t outputs,
              double* out);
};

Steps steps_of([[maybe_unused]] LookupKernel kernel) {
#ifdef CSECG_SIGN_PACKED_AVX512
  if (kernel == LookupKernel::kAvx512) {
    return {fill_tables_avx512, add_lookups_run_avx512};
  }
#endif
  return {fill_tables, add_lookups_run};
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

bool kernel_supported(LookupKernel kernel) {
  if (kernel == LookupKernel::kPortable) return true;
#ifdef CSECG_SIGN_PACKED_AVX512
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

LookupKernel selected_kernel() {
  static const LookupKernel kernel = kernel_supported(LookupKernel::kAvx512)
                                         ? LookupKernel::kAvx512
                                         : LookupKernel::kPortable;
  return kernel;
}

const char* kernel_name(LookupKernel kernel) {
  return kernel == LookupKernel::kAvx512 ? "avx512" : "portable";
}

SignPackedMatrix::SignPackedMatrix(std::size_t m, std::size_t n,
                                   LookupKernel kernel)
    : m_(m),
      n_(n),
      kernel_(kernel),
      scale_(n),
      group_stride_(padded_stride(m)),
      by_group_((n + 3) / 4 * group_stride_),
      block_stride_(padded_stride(n)),
      by_block_((m + 3) / 4 * block_stride_) {}

std::optional<SignPackedMatrix> SignPackedMatrix::pack(const Matrix& a,
                                                       LookupKernel kernel) {
  CSECG_CHECK(kernel_supported(kernel),
              "sign-packed: the " << kernel_name(kernel)
                                  << " kernel is not supported on this CPU");
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
  SignPackedMatrix packed(m, n, kernel);
  for (std::size_t j = 0; j < n; ++j) {
    packed.scale_[j] = std::abs(first[j]);
    packed.unit_scales_ = packed.unit_scales_ && packed.scale_[j] == 1.0;
  }
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = a.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      if (row[j] > 0.0) continue;
      packed.by_group_[j / 4 * packed.group_stride_ + i] |=
          static_cast<std::uint8_t>(1u << (j % 4));
      packed.by_block_[i / 4 * packed.block_stride_ + j] |=
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
  const std::size_t groups = (n_ + 3) / 4;
  double* tables = scratch(20 * groups);
  double* values = tables + 16 * groups;
  for (std::size_t j = 0; j < n_; ++j) values[j] = scale_[j] * x[j];
  for (std::size_t j = n_; j < 4 * groups; ++j) values[j] = 0.0;
  const Steps steps = steps_of(kernel_);
  steps.fill(values, groups, tables);
  // Each run of kept rows sums all groups, eight rows at a time; a masked
  // row costs nothing but its zero.
  const std::uint8_t* signs = by_group_.data();
  for (std::size_t i = 0; i < m_; ++i) y[i] = 0.0;
  for_each_kept_run(
      m_, [keep](std::size_t i) { return kept(keep, i); },
      [&](std::size_t first, std::size_t last) {
        steps.run(tables, signs + first, group_stride_, groups, last - first,
                  y.data() + first);
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
  double* tables = scratch(16 * blocks + (keep.empty() ? 0 : m_));
  const double* values = qp;
  if (!keep.empty()) {
    double* zeroed = tables + 16 * blocks;
    for (std::size_t i = 0; i < m_; ++i) zeroed[i] = keep[i] != 0 ? qp[i] : 0.0;
    values = zeroed;
  }
  const Steps steps = steps_of(kernel_);
  const std::uint8_t* signs = by_block_.data();
  double* yp = y.data();
  for (std::size_t j = 0; j < n_; ++j) yp[j] = 0.0;
  for_each_kept_run(
      blocks,
      [keep](std::size_t b) {
        return kept(keep, 4 * b) || kept(keep, 4 * b + 1) ||
               kept(keep, 4 * b + 2) || kept(keep, 4 * b + 3);
      },
      [&](std::size_t first, std::size_t last) {
        steps.fill(values + 4 * first, last - first, tables + 16 * first);
        steps.run(tables + 16 * first, signs + first * block_stride_,
                  block_stride_, last - first, n_, yp);
      });
  const std::uint8_t* tail = signs + blocks * block_stride_;
  for (std::size_t t = 0; t < tail_rows; ++t) {
    const std::size_t row = 4 * blocks + t;
    if (!kept(keep, row)) continue;
    const double value = qp[row];
    for (std::size_t j = 0; j < n_; ++j) {
      yp[j] += ((tail[j] >> t) & 1u) != 0 ? -value : value;
    }
  }
  if (!unit_scales_) {
    for (std::size_t j = 0; j < n_; ++j) yp[j] *= scale_[j];
  }
}

}  // namespace csecg::linalg::detail
