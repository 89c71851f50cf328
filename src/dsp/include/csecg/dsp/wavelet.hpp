// Orthogonal wavelet filter banks.
//
// ECG windows are sparse in Daubechies-family wavelet bases; the authors'
// earlier TBME'11 work (ref [1] of the paper) used such a dictionary, and
// this module provides the orthonormal filters the DWT is built from.
// Every family here satisfies the quadrature-mirror-filter (QMF)
// orthonormality conditions Σ h[k]·h[k+2j] = δ_j and Σ h[k] = √2, which
// the test suite verifies for all families to 1e-12.
#pragma once

#include <string>
#include <vector>

namespace csecg::dsp {

/// Supported orthogonal wavelet families.
enum class WaveletFamily {
  kHaar,
  kDb2,
  kDb3,
  kDb4,
  kDb5,
  kDb6,
  kDb7,
  kDb8,
  kDb9,
  kDb10,
  kSym4,
  kSym5,
  kSym6,
  kSym8,
  kCoif1,
  kCoif2,
};

/// All families, in declaration order (for sweeps/tests).
const std::vector<WaveletFamily>& all_wavelet_families();

/// Human-readable family name ("db4", "sym8", ...).
std::string wavelet_name(WaveletFamily family);

/// An orthonormal two-channel filter bank.
struct Wavelet {
  WaveletFamily family;
  /// Lowpass (scaling) analysis filter h, Σh = √2.
  std::vector<double> lowpass;
  /// Highpass (wavelet) analysis filter g, derived from h by the QMF rule
  /// g[k] = (-1)^k · h[L−1−k].
  std::vector<double> highpass;

  std::size_t length() const noexcept { return lowpass.size(); }
};

/// Builds the filter bank for a family.
Wavelet make_wavelet(WaveletFamily family);

}  // namespace csecg::dsp
