// Unit tests for csecg::dsp — wavelet filter banks (QMF orthonormality for
// every family), DWT perfect reconstruction / orthonormality, FIR tools,
// and the orthonormal DCT-II dictionary.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#include "csecg/dsp/dct.hpp"
#include "csecg/dsp/dwt.hpp"
#include "csecg/dsp/fir.hpp"
#include "csecg/dsp/wavelet.hpp"
#include "csecg/linalg/operator.hpp"
#include "csecg/rng/distributions.hpp"
#include "csecg/rng/xoshiro.hpp"

namespace csecg::dsp {
namespace {

using linalg::Vector;

Vector random_signal(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 g(seed);
  Vector v(n);
  for (auto& x : v) x = rng::normal(g);
  return v;
}

// ---------------------------------------------------------------------------
// Wavelet filters: property tests over every family.

class WaveletFamilyTest : public ::testing::TestWithParam<WaveletFamily> {};

TEST_P(WaveletFamilyTest, LowpassSumsToSqrt2) {
  const Wavelet w = make_wavelet(GetParam());
  double sum = 0.0;
  for (double h : w.lowpass) sum += h;
  EXPECT_NEAR(sum, std::numbers::sqrt2, 1e-10) << wavelet_name(GetParam());
}

TEST_P(WaveletFamilyTest, HighpassSumsToZero) {
  const Wavelet w = make_wavelet(GetParam());
  double sum = 0.0;
  for (double g : w.highpass) sum += g;
  EXPECT_NEAR(sum, 0.0, 1e-10);
}

TEST_P(WaveletFamilyTest, QmfOrthonormality) {
  // Σ h[k]·h[k+2j] = δ_j and the same for g; cross products vanish.
  const Wavelet w = make_wavelet(GetParam());
  const auto len = w.length();
  for (std::size_t shift = 0; shift < len; shift += 2) {
    double hh = 0.0;
    double gg = 0.0;
    double hg = 0.0;
    for (std::size_t k = 0; k + shift < len; ++k) {
      hh += w.lowpass[k] * w.lowpass[k + shift];
      gg += w.highpass[k] * w.highpass[k + shift];
      hg += w.lowpass[k] * w.highpass[k + shift];
    }
    const double expected = shift == 0 ? 1.0 : 0.0;
    EXPECT_NEAR(hh, expected, 1e-10) << "shift " << shift;
    EXPECT_NEAR(gg, expected, 1e-10) << "shift " << shift;
    if (shift == 0) {
      EXPECT_NEAR(hg, 0.0, 1e-10);
    }
  }
}

TEST_P(WaveletFamilyTest, FilterLengthEven) {
  EXPECT_EQ(make_wavelet(GetParam()).length() % 2, 0u);
}

TEST_P(WaveletFamilyTest, NameRoundTrips) {
  const WaveletFamily family = GetParam();
  EXPECT_EQ(wavelet_from_name(wavelet_name(family)), family);
}

TEST_P(WaveletFamilyTest, PerfectReconstructionN128) {
  const Dwt dwt(GetParam(), 128, 3);
  const Vector x = random_signal(128, 99);
  const Vector rec = dwt.inverse(dwt.forward(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(rec[i], x[i], 1e-9) << wavelet_name(GetParam()) << " @" << i;
  }
}

TEST_P(WaveletFamilyTest, TransformPreservesEnergy) {
  const Dwt dwt(GetParam(), 256, 4);
  const Vector x = random_signal(256, 123);
  const Vector c = dwt.forward(x);
  EXPECT_NEAR(linalg::norm2(c), linalg::norm2(x), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, WaveletFamilyTest,
    ::testing::ValuesIn(all_wavelet_families()),
    [](const ::testing::TestParamInfo<WaveletFamily>& param_info) {
      return wavelet_name(param_info.param);
    });

TEST(Wavelet, UnknownNameThrows) {
  EXPECT_THROW(wavelet_from_name("db99"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// DWT structure.

TEST(Dwt, RejectsBadConfigurations) {
  EXPECT_THROW(Dwt(WaveletFamily::kDb4, 0, 1), std::invalid_argument);
  EXPECT_THROW(Dwt(WaveletFamily::kDb4, 128, 0), std::invalid_argument);
  EXPECT_THROW(Dwt(WaveletFamily::kDb4, 100, 3), std::invalid_argument);
  EXPECT_THROW(Dwt(WaveletFamily::kDb4, 128, 8), std::invalid_argument);
}

TEST(Dwt, MaxLevels) {
  EXPECT_EQ(Dwt::max_levels(512), 9);
  EXPECT_EQ(Dwt::max_levels(360), 3);
  EXPECT_EQ(Dwt::max_levels(7), 0);
}

TEST(Dwt, ForwardRejectsWrongLength) {
  const Dwt dwt(WaveletFamily::kHaar, 64, 2);
  EXPECT_THROW(dwt.forward(Vector(63)), std::invalid_argument);
  EXPECT_THROW(dwt.inverse(Vector(65)), std::invalid_argument);
}

TEST(Dwt, HaarSingleLevelKnownValues) {
  const Dwt dwt(WaveletFamily::kHaar, 4, 1);
  const Vector x{1.0, 3.0, 5.0, 7.0};
  const Vector c = dwt.forward(x);
  const double s = std::numbers::sqrt2;
  // approx = (x0+x1)/√2, (x2+x3)/√2 ; detail = (x0−x1)/√2, (x2−x3)/√2.
  EXPECT_NEAR(c[0], 4.0 / s, 1e-12);
  EXPECT_NEAR(c[1], 12.0 / s, 1e-12);
  EXPECT_NEAR(c[2], -2.0 / s, 1e-12);
  EXPECT_NEAR(c[3], -2.0 / s, 1e-12);
}

TEST(Dwt, ConstantSignalAllEnergyInApprox) {
  const Dwt dwt(WaveletFamily::kDb4, 128, 3);
  const Vector x(128, 5.0);
  const Vector c = dwt.forward(x);
  // Every detail coefficient vanishes (filters have a vanishing moment).
  for (std::size_t i = 128 / 8; i < 128; ++i) EXPECT_NEAR(c[i], 0.0, 1e-9);
  // Energy preserved in the approximation band.
  double approx_energy = 0.0;
  for (std::size_t i = 0; i < 128 / 8; ++i) approx_energy += c[i] * c[i];
  EXPECT_NEAR(approx_energy, linalg::norm2_squared(x), 1e-7);
}

TEST(Dwt, LinearRampSparseUnderDb2) {
  // db2 has two vanishing moments: details of a linear ramp vanish away
  // from the periodic wrap-around.
  const std::size_t n = 64;
  const Dwt dwt(WaveletFamily::kDb2, n, 1);
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i);
  const Vector c = dwt.forward(x);
  // Interior detail coefficients ~0 (skip the few affected by wrap).
  for (std::size_t i = n / 2 + 1; i < n - 2; ++i) {
    EXPECT_NEAR(c[i], 0.0, 1e-9) << i;
  }
}

TEST(Dwt, SynthesisOperatorIsOrthonormal) {
  const Dwt dwt(WaveletFamily::kSym6, 128, 4);
  const linalg::LinearOperator psi = dwt.synthesis_operator();
  EXPECT_LT(linalg::adjoint_mismatch(psi), 1e-12);
  EXPECT_NEAR(linalg::operator_norm_estimate(psi, 60), 1.0, 1e-8);
}

TEST(Dwt, MultiLevelMatchesRepeatedSingleLevel) {
  const std::size_t n = 64;
  const Vector x = random_signal(n, 7);
  const Dwt two(WaveletFamily::kDb3, n, 2);
  const Dwt one_full(WaveletFamily::kDb3, n, 1);
  const Dwt one_half(WaveletFamily::kDb3, n / 2, 1);
  const Vector c1 = one_full.forward(x);
  Vector approx(n / 2);
  for (std::size_t i = 0; i < n / 2; ++i) approx[i] = c1[i];
  const Vector c2 = one_half.forward(approx);
  const Vector c_ref = two.forward(x);
  for (std::size_t i = 0; i < n / 2; ++i) {
    EXPECT_NEAR(c_ref[i], c2[i], 1e-10);               // Coarse part.
    EXPECT_NEAR(c_ref[n / 2 + i], c1[n / 2 + i], 1e-10);  // Level-1 details.
  }
}

// ---------------------------------------------------------------------------
// The fixed-tap kernels against a plain run-time filter-length reference.

/// One analysis level, looping over the run-time filter length: output i
/// sums tap k · input[(2i + k) mod len] in order of k from 0.0.
void reference_analyze(const Wavelet& w, const double* input, std::size_t len,
                       double* approx, double* detail) {
  const std::size_t flen = w.length();
  for (std::size_t i = 0; i < len / 2; ++i) {
    double a = 0.0;
    double d = 0.0;
    for (std::size_t k = 0; k < flen; ++k) {
      const double v = input[(2 * i + k) % len];
      a += w.lowpass[k] * v;
      d += w.highpass[k] * v;
    }
    approx[i] = a;
    detail[i] = d;
  }
}

/// One synthesis level: output[(2i + k) mod len] accumulates in order of i
/// from 0.0.
void reference_synthesize(const Wavelet& w, const double* approx,
                          const double* detail, std::size_t half,
                          double* output) {
  const std::size_t len = 2 * half;
  const std::size_t flen = w.length();
  for (std::size_t j = 0; j < len; ++j) output[j] = 0.0;
  for (std::size_t i = 0; i < half; ++i) {
    for (std::size_t k = 0; k < flen; ++k) {
      output[(2 * i + k) % len] +=
          w.lowpass[k] * approx[i] + w.highpass[k] * detail[i];
    }
  }
}

Vector reference_forward(const Wavelet& w, const Vector& x, int levels) {
  const std::size_t n = x.size();
  Vector coeffs(n);
  std::vector<double> current(x.begin(), x.end());
  std::vector<double> approx(n / 2);
  std::size_t len = n;
  for (int level = 0; level < levels; ++level) {
    const std::size_t half = len / 2;
    reference_analyze(w, current.data(), len, approx.data(),
                      coeffs.data() + half);
    for (std::size_t i = 0; i < half; ++i) current[i] = approx[i];
    len = half;
  }
  for (std::size_t i = 0; i < len; ++i) coeffs[i] = current[i];
  return coeffs;
}

Vector reference_inverse(const Wavelet& w, const Vector& coeffs, int levels) {
  const std::size_t n = coeffs.size();
  Vector x = coeffs;
  std::vector<double> merged(n);
  for (std::size_t half = n >> levels; half < n; half *= 2) {
    reference_synthesize(w, x.data(), x.data() + half, half, merged.data());
    for (std::size_t i = 0; i < 2 * half; ++i) x[i] = merged[i];
  }
  return x;
}

std::vector<std::uint64_t> bits_of(const Vector& v) {
  std::vector<std::uint64_t> bits;
  for (const double x : v) bits.push_back(std::bit_cast<std::uint64_t>(x));
  return bits;
}

TEST(Dwt, FixedTapKernelsBitIdenticalToRuntimeLengthLoops) {
  // Every family at every level count, on n = 64 and 512.  Deep levels
  // leave bands shorter than the filter (db10 and sym8 from the 16-sample
  // band down), where every output wraps.
  for (const WaveletFamily family : all_wavelet_families()) {
    const Wavelet w = make_wavelet(family);
    for (const std::size_t n : {std::size_t{64}, std::size_t{512}}) {
      for (int levels = 1; levels <= Dwt::max_levels(n); ++levels) {
        SCOPED_TRACE(wavelet_name(family) + " n=" + std::to_string(n) +
                     " levels=" + std::to_string(levels));
        const Dwt dwt(family, n, levels);
        const std::uint64_t seed =
            1000 * n + static_cast<std::uint64_t>(levels);
        const Vector x = random_signal(n, seed);
        const Vector c = random_signal(n, seed + 500);
        const auto forward_ref = bits_of(reference_forward(w, x, levels));
        const auto inverse_ref = bits_of(reference_inverse(w, c, levels));
        EXPECT_EQ(bits_of(dwt.forward(x)), forward_ref);
        EXPECT_EQ(bits_of(dwt.inverse(c)), inverse_ref);
        Vector into(3, 1.0);  // Wrong size and stale contents on entry.
        dwt.forward_into(x, into);
        EXPECT_EQ(bits_of(into), forward_ref);
        dwt.inverse_into(c, into);
        EXPECT_EQ(bits_of(into), inverse_ref);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// FIR utilities.

TEST(Fir, LowpassUnitDcGain) {
  const auto h = design_lowpass(0.1, 31);
  double sum = 0.0;
  for (double v : h) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Fir, LowpassIsSymmetric) {
  const auto h = design_lowpass(0.2, 21);
  for (std::size_t i = 0; i < h.size() / 2; ++i) {
    EXPECT_NEAR(h[i], h[h.size() - 1 - i], 1e-12);
  }
}

TEST(Fir, LowpassRejectsBadArgs) {
  EXPECT_THROW(design_lowpass(0.0, 31), std::invalid_argument);
  EXPECT_THROW(design_lowpass(0.5, 31), std::invalid_argument);
  EXPECT_THROW(design_lowpass(0.1, 30), std::invalid_argument);
  EXPECT_THROW(design_lowpass(0.1, 1), std::invalid_argument);
}

TEST(Fir, LowpassAttenuatesHighFrequency) {
  const auto h = design_lowpass(0.05, 101);
  const std::size_t n = 512;
  Vector low(n);
  Vector high(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    low[i] = std::sin(2.0 * std::numbers::pi * 0.01 * t);
    high[i] = std::sin(2.0 * std::numbers::pi * 0.25 * t);
  }
  const Vector low_out = filter_same(low, h);
  const Vector high_out = filter_same(high, h);
  // Measure in the interior to avoid edge transients.
  double low_rms = 0.0;
  double high_rms = 0.0;
  for (std::size_t i = 128; i < n - 128; ++i) {
    low_rms += low_out[i] * low_out[i];
    high_rms += high_out[i] * high_out[i];
  }
  EXPECT_GT(low_rms, 50.0 * high_rms);
}

TEST(Fir, ConvolveKnownSequence) {
  const Vector x{1.0, 2.0, 3.0};
  const std::vector<double> h{1.0, -1.0};
  const Vector y = convolve(x, h);
  EXPECT_EQ(y.size(), 4u);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
  EXPECT_DOUBLE_EQ(y[2], 1.0);
  EXPECT_DOUBLE_EQ(y[3], -3.0);
}

TEST(Fir, ConvolveEmptyThrows) {
  EXPECT_THROW(convolve(Vector{}, {1.0}), std::invalid_argument);
  EXPECT_THROW(convolve(Vector{1.0}, {}), std::invalid_argument);
}

TEST(Fir, FilterSameIdentityImpulse) {
  const Vector x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> delta{0.0, 1.0, 0.0};
  const Vector y = filter_same(x, delta);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

// filter_same then every factor-th sample, the two-step form that
// filter_decimate fuses.
Vector filter_then_stride(const Vector& x, const std::vector<double>& h,
                          std::size_t factor) {
  const Vector full = filter_same(x, h);
  Vector y((full.size() + factor - 1) / factor);
  for (std::size_t j = 0; j < y.size(); ++j) y[j] = full[j * factor];
  return y;
}

TEST(Fir, FilterDecimateMatchesFilterSameThenStrideBitForBit) {
  const auto h = design_lowpass(0.45 / 4.0, 63);
  // Lengths that are and are not multiples of the factor, and shorter
  // than the filter; exact zeros (both signs) and runs of them, which
  // convolve skips rather than adds.
  for (const std::size_t n : {1u, 7u, 40u, 61u, 64u, 1001u}) {
    Vector x = random_signal(n, 90 + n);
    for (std::size_t i = 0; i < n; i += 5) x[i] = 0.0;
    for (std::size_t i = 3; i < n; i += 11) x[i] = -0.0;
    for (std::size_t i = n / 2; i < std::min(n, n / 2 + 70); ++i) x[i] = 0.0;
    for (const std::size_t factor : {1u, 2u, 3u, 4u, 7u}) {
      EXPECT_EQ(bits_of(filter_decimate(x, h, factor)),
                bits_of(filter_then_stride(x, h, factor)))
          << "n = " << n << ", factor = " << factor;
    }
  }
  // A short odd filter with a negative tap, where cancellation to zero
  // can happen mid-sum.
  const std::vector<double> short_h{0.25, -0.5, 0.25};
  const Vector x{1.0, 2.0, 0.0, 3.0, 1.0, 0.0, 0.0, 4.0, 2.0, 1.0};
  for (const std::size_t factor : {1u, 3u, 4u}) {
    EXPECT_EQ(bits_of(filter_decimate(x, short_h, factor)),
              bits_of(filter_then_stride(x, short_h, factor)));
  }
}

TEST(Fir, FilterDecimateValidation) {
  const std::vector<double> h{0.25, 0.5, 0.25};
  EXPECT_THROW(filter_decimate(Vector{}, h, 2), std::invalid_argument);
  EXPECT_THROW(filter_decimate(Vector{1.0}, {}, 2), std::invalid_argument);
  EXPECT_THROW(filter_decimate(Vector{1.0}, {0.5, 0.5}, 2),
               std::invalid_argument);
  EXPECT_THROW(filter_decimate(Vector{1.0}, h, 0), std::invalid_argument);
}

TEST(Fir, FirDecimatorChecksItsSampleCount) {
  const std::vector<double> h{0.25, 0.5, 0.25};
  FirDecimator early(h, 2, 3);
  early.push(1.0);
  EXPECT_THROW(early.finish(), std::invalid_argument);
  FirDecimator full(h, 2, 1);
  full.push(1.0);
  EXPECT_THROW(full.push(2.0), std::invalid_argument);
  EXPECT_EQ(full.finish().size(), 1u);
}

TEST(Fir, MovingAverageConstantIsIdentity) {
  const Vector x(20, 3.5);
  const Vector y = moving_average(x, 5);
  for (double v : y) EXPECT_NEAR(v, 3.5, 1e-12);
  EXPECT_THROW(moving_average(x, 4), std::invalid_argument);
}

TEST(Fir, MovingAverageSmoothsNoise) {
  const Vector x = random_signal(400, 44);
  const Vector y = moving_average(x, 21);
  EXPECT_LT(linalg::norm2(y), linalg::norm2(x) * 0.5);
}

// ---------------------------------------------------------------------------
// DCT.

TEST(Dct, Validation) {
  EXPECT_THROW(dsp::Dct(0), std::invalid_argument);
  const dsp::Dct dct(8);
  EXPECT_THROW(dct.forward(Vector(7)), std::invalid_argument);
  EXPECT_THROW(dct.inverse(Vector(9)), std::invalid_argument);
}

TEST(Dct, PerfectReconstruction) {
  const dsp::Dct dct(64);
  rng::Xoshiro256 gen(11);
  Vector x(64);
  for (auto& v : x) v = rng::normal(gen);
  const Vector rec = dct.inverse(dct.forward(x));
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NEAR(rec[i], x[i], 1e-10);
}

TEST(Dct, EnergyPreserved) {
  const dsp::Dct dct(128);
  rng::Xoshiro256 gen(12);
  Vector x(128);
  for (auto& v : x) v = rng::normal(gen);
  EXPECT_NEAR(linalg::norm2(dct.forward(x)), linalg::norm2(x), 1e-10);
}

TEST(Dct, ConstantSignalIsDcOnly) {
  const dsp::Dct dct(32);
  const Vector x(32, 3.0);
  const Vector coeffs = dct.forward(x);
  EXPECT_NEAR(coeffs[0], 3.0 * std::sqrt(32.0), 1e-10);
  for (std::size_t k = 1; k < 32; ++k) EXPECT_NEAR(coeffs[k], 0.0, 1e-10);
}

TEST(Dct, PureToneIsOneCoefficient) {
  const std::size_t n = 64;
  const dsp::Dct dct(n);
  // DCT-II basis vector k=5 as the signal: coefficients = e_5.
  Vector unit(n);
  unit[5] = 1.0;
  const Vector tone = dct.inverse(unit);
  const Vector coeffs = dct.forward(tone);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(coeffs[k], k == 5 ? 1.0 : 0.0, 1e-10);
  }
}

TEST(Dct, SynthesisOperatorOrthonormal) {
  const dsp::Dct dct(48);
  const auto psi = dct.synthesis_operator();
  EXPECT_LT(linalg::adjoint_mismatch(psi), 1e-12);
  EXPECT_NEAR(linalg::operator_norm_estimate(psi, 60), 1.0, 1e-8);
}

}  // namespace
}  // namespace csecg::dsp
