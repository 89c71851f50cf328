// Unit tests for csecg::sensing — ensembles, quantizers, the low-res
// channel box guarantee, and RMPI simulator consistency with y = Φx.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "csecg/linalg/matrix.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/rng/distributions.hpp"
#include "csecg/rng/xoshiro.hpp"
#include "csecg/sensing/lowres_channel.hpp"
#include "csecg/sensing/matrices.hpp"
#include "csecg/sensing/quantizer.hpp"
#include "csecg/sensing/rmpi.hpp"

namespace csecg::sensing {
namespace {

using linalg::Matrix;
using linalg::Vector;

// ---------------------------------------------------------------------------
// Ensembles.

TEST(SensingConfigValidation, RejectsNonsense) {
  SensingConfig bad;
  bad.measurements = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = SensingConfig{};
  bad.measurements = 600;
  bad.window = 512;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = SensingConfig{};
  bad.ensemble = Ensemble::kSparseBinary;
  bad.sparse_column_weight = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad.sparse_column_weight = 200;
  bad.measurements = 128;
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(Ensembles, RademacherEntriesArePlusMinusOne) {
  SensingConfig config;
  config.measurements = 16;
  config.window = 64;
  const Matrix phi = make_sensing_matrix(config);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 64; ++j) {
      EXPECT_TRUE(phi(i, j) == 1.0 || phi(i, j) == -1.0);
    }
  }
}

TEST(Ensembles, RademacherRoughlyBalanced) {
  SensingConfig config;
  config.measurements = 64;
  config.window = 512;
  const Matrix phi = make_sensing_matrix(config);
  double sum = 0.0;
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 512; ++j) sum += phi(i, j);
  }
  EXPECT_LT(std::abs(sum) / (64.0 * 512.0), 0.03);
}

TEST(Ensembles, DeterministicInSeed) {
  SensingConfig config;
  config.measurements = 8;
  config.window = 32;
  config.seed = 77;
  EXPECT_EQ(make_sensing_matrix(config), make_sensing_matrix(config));
  SensingConfig other = config;
  other.seed = 78;
  EXPECT_NE(make_sensing_matrix(config), make_sensing_matrix(other));
}

TEST(Ensembles, GaussianMomentsPlausible) {
  SensingConfig config;
  config.ensemble = Ensemble::kGaussian;
  config.measurements = 64;
  config.window = 512;
  const Matrix phi = make_sensing_matrix(config);
  double sum = 0.0;
  double sum2 = 0.0;
  const double total = 64.0 * 512.0;
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 512; ++j) {
      sum += phi(i, j);
      sum2 += phi(i, j) * phi(i, j);
    }
  }
  EXPECT_NEAR(sum / total, 0.0, 0.02);
  EXPECT_NEAR(sum2 / total, 1.0, 0.05);
}

TEST(Ensembles, SparseBinaryColumnWeightExact) {
  SensingConfig config;
  config.ensemble = Ensemble::kSparseBinary;
  config.measurements = 32;
  config.window = 128;
  config.sparse_column_weight = 6;
  const Matrix phi = make_sensing_matrix(config);
  for (std::size_t j = 0; j < 128; ++j) {
    int ones = 0;
    for (std::size_t i = 0; i < 32; ++i) {
      EXPECT_TRUE(phi(i, j) == 0.0 || phi(i, j) == 1.0);
      if (phi(i, j) == 1.0) ++ones;
    }
    EXPECT_EQ(ones, 6);
  }
}

TEST(Ensembles, NamesDistinct) {
  EXPECT_NE(ensemble_name(Ensemble::kRademacher),
            ensemble_name(Ensemble::kGaussian));
  EXPECT_NE(ensemble_name(Ensemble::kGaussian),
            ensemble_name(Ensemble::kSparseBinary));
}

TEST(Chipping, MatchesRademacherEnsemble) {
  SensingConfig config;
  config.measurements = 12;
  config.window = 48;
  config.seed = 5;
  EXPECT_EQ(chipping_sequences(12, 48, 5), make_sensing_matrix(config));
}

TEST(ChipPrefixProperty, SmallBankIsPrefixOfLargeBank) {
  // Row-prefix stability: the m-channel chip matrix is the first m rows of
  // the m_max-channel one.
  const auto big = sensing::chipping_sequences(64, 128, 42);
  const auto small = sensing::chipping_sequences(16, 128, 42);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 128; ++j) {
      ASSERT_EQ(small(i, j), big(i, j));
    }
  }
}

// ---------------------------------------------------------------------------
// Quantizer.

TEST(Quantizer, Validation) {
  EXPECT_THROW(Quantizer(0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Quantizer(31, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Quantizer(4, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Quantizer(4, 2.0, 1.0), std::invalid_argument);
}

TEST(Quantizer, StepAndLevels) {
  const Quantizer q(3, 0.0, 8.0);
  EXPECT_EQ(q.levels(), 8);
  EXPECT_DOUBLE_EQ(q.step(), 1.0);
}

TEST(Quantizer, FloorCodes) {
  const Quantizer q(2, 0.0, 4.0, QuantizerMode::kFloor);
  EXPECT_EQ(q.code(0.0), 0);
  EXPECT_EQ(q.code(0.99), 0);
  EXPECT_EQ(q.code(1.0), 1);
  EXPECT_EQ(q.code(3.99), 3);
}

TEST(Quantizer, ClipsOutOfRange) {
  const Quantizer q(2, 0.0, 4.0);
  EXPECT_EQ(q.code(-5.0), 0);
  EXPECT_EQ(q.code(100.0), 3);
}

TEST(Quantizer, InfinitiesClampToRails) {
  // The seed computed floor((inf - lo)/step) and cast the result to
  // int64 — UB that happened to wrap on x86 (ISSUE 3).  Infinities are
  // "very out of range" and must clamp like any saturated sample.
  const Quantizer q(3, -4.0, 4.0);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(q.code(inf), q.levels() - 1);
  EXPECT_EQ(q.code(-inf), 0);
}

TEST(Quantizer, NanInputThrows) {
  // A NaN carries no ordering information, so there is no defensible
  // rail; silently emitting code 0 would corrupt the frame downstream.
  const Quantizer q(3, -4.0, 4.0);
  const double nan = std::nan("");
  EXPECT_THROW(q.code(nan), std::invalid_argument);
  EXPECT_THROW(q.quantize(Vector{0.0, nan}), std::invalid_argument);
  Vector lower;
  Vector upper;
  EXPECT_THROW(q.boxes(Vector{nan}, lower, upper), std::invalid_argument);
}

TEST(Quantizer, UpperBoundaryValueClampsToTopCode) {
  // value == hi lands exactly on the one-past-the-last lower edge; the
  // float index equals `levels` and must clamp, not overflow the cast.
  const Quantizer q(2, 0.0, 4.0);
  EXPECT_EQ(q.code(4.0), 3);
  // Just below hi stays in the top bin; far above clamps to it.
  EXPECT_EQ(q.code(std::nextafter(4.0, 0.0)), 3);
  EXPECT_EQ(q.code(std::nextafter(4.0, 8.0)), 3);
}

TEST(Quantizer, LowerEdgeValidation) {
  const Quantizer q(2, 0.0, 4.0);
  EXPECT_DOUBLE_EQ(q.lower_edge(2), 2.0);
  EXPECT_THROW(q.lower_edge(-1), std::invalid_argument);
  EXPECT_THROW(q.lower_edge(4), std::invalid_argument);
}

TEST(Quantizer, ReconstructFloorVsRound) {
  const Quantizer floor_q(2, 0.0, 4.0, QuantizerMode::kFloor);
  const Quantizer round_q(2, 0.0, 4.0, QuantizerMode::kRound);
  EXPECT_DOUBLE_EQ(floor_q.reconstruct(1), 1.0);
  EXPECT_DOUBLE_EQ(round_q.reconstruct(1), 1.5);
}

TEST(Quantizer, RoundModeErrorBounded) {
  const Quantizer q(6, -10.0, 10.0, QuantizerMode::kRound);
  rng::Xoshiro256 gen(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng::uniform(gen, -10.0, 9.999);
    const double rec = q.reconstruct(q.code(v));
    EXPECT_LE(std::abs(rec - v), q.step() / 2.0 + 1e-12);
  }
}

TEST(Quantizer, FloorBoxContainsOriginal) {
  const Quantizer q(5, 0.0, 2048.0, QuantizerMode::kFloor);
  rng::Xoshiro256 gen(4);
  Vector x(256);
  for (auto& v : x) v = rng::uniform(gen, 0.0, 2047.9);
  Vector lower;
  Vector upper;
  q.boxes(x, lower, upper);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(lower[i], x[i]);
    EXPECT_GE(upper[i], x[i]);
    EXPECT_DOUBLE_EQ(upper[i] - lower[i], q.step());
  }
}

TEST(Quantizer, BoxesRequireFloorMode) {
  const Quantizer q(5, 0.0, 1.0, QuantizerMode::kRound);
  Vector lower;
  Vector upper;
  EXPECT_THROW(q.boxes(Vector{0.5}, lower, upper), std::invalid_argument);
}

TEST(Quantizer, QuantizeVectorMatchesScalarPath) {
  const Quantizer q(4, 0.0, 16.0);
  const Vector x{0.3, 5.7, 15.2};
  const Vector out = q.quantize(x);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 5.0);
  EXPECT_DOUBLE_EQ(out[2], 15.0);
}

// ---------------------------------------------------------------------------
// Low-resolution channel.

TEST(LowRes, Validation) {
  LowResConfig bad;
  bad.bits = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = LowResConfig{};
  bad.bits = 12;
  bad.full_scale_bits = 11;
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(LowRes, StepMatchesPaperGeometry) {
  // 7-bit channel over an 11-bit record: d = 2^4 = 16 ADC units.
  const LowResChannel channel(LowResConfig{7, 11});
  EXPECT_DOUBLE_EQ(channel.step(), 16.0);
  const LowResChannel coarse(LowResConfig{4, 11});
  EXPECT_DOUBLE_EQ(coarse.step(), 128.0);
}

TEST(LowRes, BoxAlwaysContainsSample) {
  const LowResChannel channel(LowResConfig{6, 11});
  rng::Xoshiro256 gen(9);
  Vector window(512);
  for (auto& v : window) v = rng::uniform(gen, 0.0, 2047.0);
  const LowResOutput out = channel.sample(window);
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_LE(out.lower[i], window[i]);
    EXPECT_GE(out.upper[i], window[i]);
    EXPECT_DOUBLE_EQ(out.upper[i] - out.lower[i], channel.step());
  }
}

TEST(LowRes, ReconstructMatchesLowerBound) {
  const LowResChannel channel(LowResConfig{7, 11});
  const Vector window{0.0, 100.0, 1024.0, 2047.0};
  const LowResOutput out = channel.sample(window);
  const Vector rec = channel.reconstruct(out.codes);
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_DOUBLE_EQ(rec[i], out.lower[i]);
  }
}

TEST(LowRes, CodesFitInBits) {
  const LowResChannel channel(LowResConfig{5, 11});
  Vector window(100);
  for (std::size_t i = 0; i < 100; ++i) {
    window[i] = static_cast<double>(i) * 20.0;
  }
  const LowResOutput out = channel.sample(window);
  for (auto c : out.codes) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 32);
  }
}

// ---------------------------------------------------------------------------
// RMPI simulator.

TEST(Rmpi, Validation) {
  RmpiConfig bad;
  bad.channels = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = RmpiConfig{};
  bad.channels = 600;
  bad.window = 512;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = RmpiConfig{};
  bad.integrator_leakage = 1.0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = RmpiConfig{};
  bad.adc_bits = 30;
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(Rmpi, IdealPathEqualsMatrixProduct) {
  RmpiConfig config;
  config.channels = 32;
  config.window = 128;
  config.adc_bits = 0;  // No measurement ADC.
  const RmpiSimulator rmpi(config);
  rng::Xoshiro256 gen(10);
  Vector x(128);
  for (auto& v : x) v = rng::uniform(gen, 900.0, 1200.0);
  const Vector y_sim = rmpi.measure(x);
  const Vector y_mat = linalg::multiply(rmpi.chips(), x);
  for (std::size_t i = 0; i < 32; ++i) EXPECT_NEAR(y_sim[i], y_mat[i], 1e-6);
}

TEST(Rmpi, QuantizedPathWithinHalfStep) {
  RmpiConfig config;
  config.channels = 16;
  config.window = 128;
  config.adc_bits = 12;
  const RmpiSimulator rmpi(config);
  rng::Xoshiro256 gen(11);
  // Zero-mean input: the front-end AC-couples before the mixers, so the
  // chip-sum stays well inside the design-time ADC range.
  Vector x(128);
  for (auto& v : x) v = rng::uniform(gen, -150.0, 150.0);
  const Vector y_q = rmpi.measure(x);
  const Vector y = rmpi.measure_unquantized(x);
  ASSERT_TRUE(rmpi.adc().has_value());
  const double half_step = rmpi.adc()->step() / 2.0;
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_LE(std::abs(y_q[i] - y[i]), half_step + 1e-9);
  }
}

TEST(Rmpi, LeakageMatchesEffectiveMatrix) {
  RmpiConfig config;
  config.channels = 8;
  config.window = 64;
  config.adc_bits = 0;
  config.integrator_leakage = 0.01;
  const RmpiSimulator rmpi(config);
  rng::Xoshiro256 gen(12);
  Vector x(64);
  for (auto& v : x) v = rng::normal(gen, 1000.0, 100.0);
  const Vector y_sim = rmpi.measure(x);
  const Vector y_eff = linalg::multiply(rmpi.effective_matrix(), x);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(y_sim[i], y_eff[i], 1e-6);
}

TEST(Rmpi, LeakageDampsEarlySamples) {
  RmpiConfig config;
  config.channels = 4;
  config.window = 32;
  config.integrator_leakage = 0.1;
  const RmpiSimulator rmpi(config);
  const linalg::Matrix eff = rmpi.effective_matrix();
  // First column is scaled by (1−λ)^(n−1), last by 1.
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_LT(std::abs(eff(c, 0)), 0.05);
    EXPECT_DOUBLE_EQ(std::abs(eff(c, 31)), 1.0);
  }
}

TEST(Rmpi, EffectiveOperatorAdjointConsistent) {
  RmpiConfig config;
  config.channels = 16;
  config.window = 64;
  config.integrator_leakage = 0.02;
  const RmpiSimulator rmpi(config);
  EXPECT_LT(linalg::adjoint_mismatch(rmpi.effective_operator()), 1e-12);
}

TEST(Rmpi, NoiseNormZeroWithoutAdc) {
  RmpiConfig config;
  config.adc_bits = 0;
  config.channels = 16;
  config.window = 64;
  EXPECT_EQ(RmpiSimulator(config).expected_quantization_noise_norm(), 0.0);
}

TEST(Rmpi, NoiseNormScalesWithChannels) {
  RmpiConfig a;
  a.channels = 16;
  a.window = 256;
  RmpiConfig b = a;
  b.channels = 64;
  const double na = RmpiSimulator(a).expected_quantization_noise_norm();
  const double nb = RmpiSimulator(b).expected_quantization_noise_norm();
  EXPECT_NEAR(nb / na, 2.0, 1e-9);
}

TEST(Rmpi, MeasureRejectsWrongLength) {
  RmpiConfig config;
  config.channels = 8;
  config.window = 64;
  const RmpiSimulator rmpi(config);
  EXPECT_THROW(rmpi.measure(Vector(63)), std::invalid_argument);
}

TEST(Rmpi, InterleavedIntegratorMatchesSerialChainBitForBit) {
  // Channel counts below, at and past the interleave width, with and
  // without leakage, against one serial acc·keep + chip·x chain each.
  for (const std::size_t m : {1u, 7u, 8u, 13u, 96u}) {
    for (const double leakage : {0.0, 0.01}) {
      RmpiConfig config;
      config.channels = m;
      config.window = 128;
      config.integrator_leakage = leakage;
      const RmpiSimulator rmpi(config);
      rng::Xoshiro256 gen(m);
      Vector x(config.window);
      for (auto& v : x) v = rng::uniform(gen, -150.0, 150.0);
      const Vector y = rmpi.measure_unquantized(x);
      const double keep = 1.0 - leakage;
      for (std::size_t c = 0; c < m; ++c) {
        double acc = 0.0;
        for (std::size_t k = 0; k < config.window; ++k) {
          acc = acc * keep + rmpi.chips()(c, k) * x[k];
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(y[c]),
                  std::bit_cast<std::uint64_t>(acc))
            << "m = " << m << ", leakage = " << leakage << ", channel " << c;
      }
    }
  }
}

TEST(Rmpi, NaNIntegratorNamesLowestChannelAndCountsInfBelowIt) {
  RmpiConfig config;
  config.channels = 24;
  config.window = 32;
  config.adc_bits = 0;
  const RmpiSimulator rmpi(config);
  // +inf at samples 0 and 1: a channel whose first two chips agree
  // saturates to ±inf, one whose chips differ forms inf − inf = NaN.
  Vector x(config.window, 1.0);
  x[0] = x[1] = std::numeric_limits<double>::infinity();
  std::size_t first_nan = config.channels;
  for (std::size_t c = 0; c < config.channels; ++c) {
    if (rmpi.chips()(c, 0) != rmpi.chips()(c, 1)) {
      first_nan = c;
      break;
    }
  }
  ASSERT_GT(first_nan, 0u) << "pick a chip seed with an inf channel first";
  ASSERT_LT(first_nan, config.channels);
  obs::Counter& nonfinite = obs::counter("rmpi.nonfinite_integrator_outputs");
  const std::uint64_t before = nonfinite.value();
  try {
    rmpi.measure(x);
    FAIL() << "a NaN integrator output must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "NaN integrator output on channel " +
                  std::to_string(first_nan)),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(nonfinite.value() - before, first_nan);
}

TEST(Rmpi, ExplicitAdcRangeHonored) {
  RmpiConfig config;
  config.channels = 4;
  config.window = 16;
  config.adc_bits = 8;
  config.adc_range = 100.0;
  const RmpiSimulator rmpi(config);
  ASSERT_TRUE(rmpi.adc().has_value());
  EXPECT_DOUBLE_EQ(rmpi.adc()->lo(), -100.0);
  EXPECT_DOUBLE_EQ(rmpi.adc()->hi(), 100.0);
}

}  // namespace
}  // namespace csecg::sensing
