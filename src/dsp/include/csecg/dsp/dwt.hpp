// Periodized multi-level discrete wavelet transform.
//
// The transform is orthonormal: forward() is an orthogonal change of basis
// (Ψᵀ), inverse() its transpose (Ψ).  Coefficient layout after L levels on
// a length-n signal (n divisible by 2^L):
//
//   [ approx(n/2^L) | detail level L (n/2^L) | ... | detail level 1 (n/2) ]
//
// which matches the conventional "pyramid" ordering so coarse coefficients
// (where ECG energy concentrates) come first.
#pragma once

#include <cstddef>

#include "csecg/dsp/wavelet.hpp"
#include "csecg/linalg/operator.hpp"
#include "csecg/linalg/vector.hpp"

namespace csecg::dsp {

/// Multi-level periodized orthonormal DWT for fixed signal length.
class Dwt {
 public:
  /// Creates a transform for signals of length n with the given number of
  /// decomposition levels.  Throws std::invalid_argument unless n is
  /// divisible by 2^levels, levels ≥ 1, and the coarsest band length
  /// n/2^levels is at least 1.
  Dwt(WaveletFamily family, std::size_t n, int levels);

  std::size_t size() const noexcept { return n_; }
  int levels() const noexcept { return levels_; }
  WaveletFamily family() const noexcept { return wavelet_.family; }

  /// Analysis: coefficients = Ψᵀ·x.  Input length must equal size().
  linalg::Vector forward(const linalg::Vector& x) const;

  /// Synthesis: x = Ψ·coefficients.  Input length must equal size().
  linalg::Vector inverse(const linalg::Vector& coeffs) const;

  /// forward() into a caller-owned vector (resized to size()); avoids the
  /// output allocation on the solver hot path.  x and coeffs must not
  /// alias.  Thread-safe: the two level buffers are per thread, so calls
  /// allocate nothing once a thread has run a transform of this size.
  void forward_into(const linalg::Vector& x, linalg::Vector& coeffs) const;

  /// inverse() into a caller-owned vector; same contract as forward_into.
  void inverse_into(const linalg::Vector& coeffs, linalg::Vector& x) const;

  /// The synthesis operator Ψ (cols = coefficient index, rows = samples);
  /// apply() is inverse(), apply_adjoint() is forward().  This is the
  /// dictionary handed to the recovery solvers.
  linalg::LinearOperator synthesis_operator() const;

  /// Largest level count usable for signals of length n with this family
  /// (limited only by divisibility by two here; periodization handles
  /// filters longer than the band).
  static int max_levels(std::size_t n);

 private:
  /// One analysis level: input (length len) → approx, detail (len/2 each).
  using AnalyzeLevel = void (*)(const double* h, const double* g,
                                const double* input, std::size_t len,
                                double* approx, double* detail);
  /// One synthesis level: approx, detail (half each) → output (2·half).
  using SynthesizeLevel = void (*)(const double* h, const double* g,
                                   const double* approx, const double* detail,
                                   std::size_t half, double* output);

  Wavelet wavelet_;
  std::size_t n_ = 0;
  int levels_ = 0;
  /// The fixed-tap kernels for this family's filter length, picked once
  /// by the constructor.
  AnalyzeLevel analyze_ = nullptr;
  SynthesizeLevel synthesize_ = nullptr;
};

}  // namespace csecg::dsp
