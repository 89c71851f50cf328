#include "csecg/dsp/dwt.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include "csecg/common/check.hpp"

namespace csecg::dsp {
namespace {

/// Per-thread workspace for forward_into/inverse_into, grown once to the
/// largest transform the thread has run: no allocation per call in steady
/// state, and a Dwt shared by pool threads stays safe to use concurrently.
double* workspace(std::size_t count) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < count) scratch.resize(count);
  return scratch.data();
}

/// idx mod len for the few indices that run past the end of a band.
std::size_t wrap(std::size_t idx, std::size_t len) {
  while (idx >= len) idx -= len;
  return idx;
}

/// One analysis level at a compile-time filter length F, so the taps
/// unroll and stay in registers.  Each output is Σ_k tap[k]·input[2i + k]
/// summed in order of k from 0.0, periodically wrapped.
template <std::size_t F>
void analyze_level(const double* h, const double* g, const double* input,
                   std::size_t len, double* approx, double* detail) {
  double hk[F];
  double gk[F];
  for (std::size_t k = 0; k < F; ++k) {
    hk[k] = h[k];
    gk[k] = g[k];
  }
  const std::size_t half = len / 2;
  // Taps stay in range (2i + F ≤ len) for the first main_count outputs;
  // only the tail needs the periodic wraparound, so the hot loop carries
  // no wrap.  A band shorter than the filter wraps in every output.
  const std::size_t main_count = len >= F ? (len - F) / 2 + 1 : 0;
  for (std::size_t i = 0; i < main_count; ++i) {
    const double* in = input + 2 * i;
    double a = 0.0;
    double d = 0.0;
    for (std::size_t k = 0; k < F; ++k) {
      const double v = in[k];
      a += hk[k] * v;
      d += gk[k] * v;
    }
    approx[i] = a;
    detail[i] = d;
  }
  for (std::size_t i = main_count; i < half; ++i) {
    double a = 0.0;
    double d = 0.0;
    for (std::size_t k = 0; k < F; ++k) {
      const double v = input[wrap(2 * i + k, len)];
      a += hk[k] * v;
      d += gk[k] * v;
    }
    approx[i] = a;
    detail[i] = d;
  }
}

/// One synthesis level at a compile-time filter length F, the exact
/// transpose of analyze_level<F>: output[(2i + k) mod len] accumulates
/// tap[k]·coefficient[i] terms in order of i from 0.0.
template <std::size_t F>
void synthesize_level(const double* h, const double* g, const double* approx,
                      const double* detail, std::size_t half,
                      double* output) {
  double hk[F];
  double gk[F];
  for (std::size_t k = 0; k < F; ++k) {
    hk[k] = h[k];
    gk[k] = g[k];
  }
  constexpr std::size_t kPhase = F / 2;  // Terms per output.
  const std::size_t len = 2 * half;
  // Outputs 2p and 2p + 1 for p ≥ F/2 − 1 take no wrapped term: they
  // gather coefficients i = p − F/2 + 1 … p (taps descending) in
  // registers.
  for (std::size_t p = kPhase - 1; p < half; ++p) {
    const double* a = approx + (p + 1 - kPhase);
    const double* d = detail + (p + 1 - kPhase);
    double even = 0.0;
    double odd = 0.0;
    for (std::size_t t = 0; t < kPhase; ++t) {
      const std::size_t k = F - 2 - 2 * t;
      even += hk[k] * a[t] + gk[k] * d[t];
      odd += hk[k + 1] * a[t] + gk[k + 1] * d[t];
    }
    output[2 * p] = even;
    output[2 * p + 1] = odd;
  }
  // The first F − 2 outputs (every output of a band shorter than the
  // filter) also take wrapped terms.  Scatter into them from each
  // coefficient that reaches them, in order of i: the first F/2 − 1 reach
  // them directly, the tail from main_count on by wrapping.
  const std::size_t head = std::min(F - 2, len);
  for (std::size_t j = 0; j < head; ++j) output[j] = 0.0;
  const auto scatter = [&](std::size_t i) {
    for (std::size_t k = 0; k < F; ++k) {
      const std::size_t j = wrap(2 * i + k, len);
      if (j < head) output[j] += hk[k] * approx[i] + gk[k] * detail[i];
    }
  };
  const std::size_t direct_end = std::min(kPhase - 1, half);
  const std::size_t main_count = len >= F ? (len - F) / 2 + 1 : 0;
  for (std::size_t i = 0; i < direct_end; ++i) scatter(i);
  for (std::size_t i = std::max(direct_end, main_count); i < half; ++i) {
    scatter(i);
  }
}

struct LevelKernels {
  decltype(&analyze_level<2>) analyze;
  decltype(&synthesize_level<2>) synthesize;
};

template <std::size_t F>
constexpr LevelKernels kernels_for() {
  return {&analyze_level<F>, &synthesize_level<F>};
}

/// One instance per even filter length the families use (haar 2 … db10 20).
constexpr LevelKernels kKernels[] = {
    kernels_for<2>(),  kernels_for<4>(),  kernels_for<6>(),
    kernels_for<8>(),  kernels_for<10>(), kernels_for<12>(),
    kernels_for<14>(), kernels_for<16>(), kernels_for<18>(),
    kernels_for<20>(),
};

}  // namespace

Dwt::Dwt(WaveletFamily family, std::size_t n, int levels)
    : wavelet_(make_wavelet(family)), n_(n), levels_(levels) {
  CSECG_CHECK(n > 0, "Dwt: signal length must be positive");
  CSECG_CHECK(levels >= 1, "Dwt: need at least one level, got " << levels);
  CSECG_CHECK(levels <= max_levels(n),
              "Dwt: " << levels << " levels not supported for n=" << n);
  const std::size_t flen = wavelet_.length();
  const std::size_t slot = flen / 2 - 1;
  CSECG_CHECK(flen % 2 == 0 && slot < std::size(kKernels),
              "Dwt: no kernel for filter length " << flen);
  analyze_ = kKernels[slot].analyze;
  synthesize_ = kKernels[slot].synthesize;
}

int Dwt::max_levels(std::size_t n) {
  int levels = 0;
  while (n % 2 == 0 && n > 1) {
    n /= 2;
    ++levels;
  }
  return levels;
}

// Both directions ping-pong the intermediate approximation bands between
// the two halves of the per-thread workspace; details, and the last
// level's band, are written straight to their place in the output, so no
// band is copied between levels.

void Dwt::forward_into(const linalg::Vector& x,
                       linalg::Vector& coeffs) const {
  CSECG_CHECK(x.size() == n_, "Dwt::forward expected length "
                                  << n_ << ", got " << x.size());
  coeffs.resize(n_);
  const double* h = wavelet_.lowpass.data();
  const double* g = wavelet_.highpass.data();
  double* const scratch = workspace(n_);
  double* const buffers[2] = {scratch, scratch + n_ / 2};
  const double* input = x.data();
  std::size_t len = n_;
  for (int level = 0; level < levels_; ++level) {
    const std::size_t half = len / 2;
    double* approx =
        level + 1 == levels_ ? coeffs.data() : buffers[level % 2];
    analyze_(h, g, input, len, approx, coeffs.data() + half);
    input = approx;
    len = half;
  }
}

linalg::Vector Dwt::forward(const linalg::Vector& x) const {
  linalg::Vector coeffs;
  forward_into(x, coeffs);
  return coeffs;
}

void Dwt::inverse_into(const linalg::Vector& coeffs,
                       linalg::Vector& x) const {
  CSECG_CHECK(coeffs.size() == n_, "Dwt::inverse expected length "
                                       << n_ << ", got " << coeffs.size());
  x.resize(n_);
  const double* h = wavelet_.lowpass.data();
  const double* g = wavelet_.highpass.data();
  double* const scratch = workspace(n_);
  double* const buffers[2] = {scratch, scratch + n_ / 2};
  const double* approx = coeffs.data();
  std::size_t half = n_ >> levels_;
  for (int level = levels_ - 1; level >= 0; --level) {
    double* merged = level == 0 ? x.data() : buffers[level % 2];
    synthesize_(h, g, approx, coeffs.data() + half, half, merged);
    approx = merged;
    half *= 2;
  }
}

linalg::Vector Dwt::inverse(const linalg::Vector& coeffs) const {
  linalg::Vector x;
  inverse_into(coeffs, x);
  return x;
}

linalg::LinearOperator Dwt::synthesis_operator() const {
  // One shared transform instance behind both callables.
  const auto self = std::make_shared<const Dwt>(*this);
  return linalg::LinearOperator(
      n_, n_,
      [self](const linalg::Vector& coeffs, linalg::Vector& x) {
        self->inverse_into(coeffs, x);
      },
      [self](const linalg::Vector& x, linalg::Vector& coeffs) {
        self->forward_into(x, coeffs);
      });
}

}  // namespace csecg::dsp
