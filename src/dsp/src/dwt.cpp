#include "csecg/dsp/dwt.hpp"

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

}  // namespace

Dwt::Dwt(WaveletFamily family, std::size_t n, int levels)
    : wavelet_(make_wavelet(family)), n_(n), levels_(levels) {
  CSECG_CHECK(n > 0, "Dwt: signal length must be positive");
  CSECG_CHECK(levels >= 1, "Dwt: need at least one level, got " << levels);
  CSECG_CHECK(levels <= max_levels(n),
              "Dwt: " << levels << " levels not supported for n=" << n);
}

int Dwt::max_levels(std::size_t n) {
  int levels = 0;
  while (n % 2 == 0 && n > 1) {
    n /= 2;
    ++levels;
  }
  return levels;
}

void Dwt::analyze_one_level(const double* input, std::size_t len,
                            double* approx, double* detail) const {
  const std::size_t half = len / 2;
  const std::size_t flen = wavelet_.length();
  const double* h = wavelet_.lowpass.data();
  const double* g = wavelet_.highpass.data();
  // Taps stay in range (2i + flen ≤ len) for the first main_count outputs;
  // only the tail needs the periodic wraparound, so the hot loop carries
  // no modulo.
  const std::size_t main_count = len >= flen ? (len - flen) / 2 + 1 : 0;
  for (std::size_t i = 0; i < main_count; ++i) {
    const double* in = input + 2 * i;
    double a = 0.0;
    double d = 0.0;
    for (std::size_t k = 0; k < flen; ++k) {
      const double v = in[k];
      a += h[k] * v;
      d += g[k] * v;
    }
    approx[i] = a;
    detail[i] = d;
  }
  for (std::size_t i = main_count; i < half; ++i) {
    double a = 0.0;
    double d = 0.0;
    const std::size_t base = 2 * i;
    for (std::size_t k = 0; k < flen; ++k) {
      const double v = input[(base + k) % len];
      a += h[k] * v;
      d += g[k] * v;
    }
    approx[i] = a;
    detail[i] = d;
  }
}

void Dwt::synthesize_one_level(const double* approx, const double* detail,
                               std::size_t half, double* output) const {
  const std::size_t len = 2 * half;
  const std::size_t flen = wavelet_.length();
  const double* h = wavelet_.lowpass.data();
  const double* g = wavelet_.highpass.data();
  for (std::size_t j = 0; j < len; ++j) output[j] = 0.0;
  const std::size_t main_count = len >= flen ? (len - flen) / 2 + 1 : 0;
  for (std::size_t i = 0; i < main_count; ++i) {
    const double a = approx[i];
    const double d = detail[i];
    double* out = output + 2 * i;
    for (std::size_t k = 0; k < flen; ++k) {
      out[k] += h[k] * a + g[k] * d;
    }
  }
  for (std::size_t i = main_count; i < half; ++i) {
    const double a = approx[i];
    const double d = detail[i];
    const std::size_t base = 2 * i;
    for (std::size_t k = 0; k < flen; ++k) {
      output[(base + k) % len] += h[k] * a + g[k] * d;
    }
  }
}

void Dwt::forward_into(const linalg::Vector& x,
                       linalg::Vector& coeffs) const {
  CSECG_CHECK(x.size() == n_, "Dwt::forward expected length "
                                  << n_ << ", got " << x.size());
  coeffs.resize(n_);
  double* current = workspace(n_ + n_ / 2);
  double* approx = current + n_;
  for (std::size_t i = 0; i < n_; ++i) current[i] = x[i];
  std::size_t len = n_;
  for (int level = 0; level < levels_; ++level) {
    const std::size_t half = len / 2;
    // Details for this level land at the tail of the active region.
    analyze_one_level(current, len, approx, coeffs.data() + half);
    for (std::size_t i = 0; i < half; ++i) current[i] = approx[i];
    len = half;
  }
  for (std::size_t i = 0; i < len; ++i) coeffs[i] = current[i];
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
  x = coeffs;
  double* merged = workspace(n_);
  std::size_t half = n_ >> levels_;
  for (int level = levels_ - 1; level >= 0; --level) {
    synthesize_one_level(x.data(), x.data() + half, half, merged);
    const std::size_t len = 2 * half;
    for (std::size_t i = 0; i < len; ++i) x[i] = merged[i];
    half = len;
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
