// Supplemental edge-case coverage across modules: error paths and boundary
// sizes.
#include <gtest/gtest.h>

#include <stdexcept>

#include "csecg/coding/huffman.hpp"
#include "csecg/dsp/dwt.hpp"
#include "csecg/linalg/operator.hpp"
#include "csecg/linalg/solve.hpp"
#include "csecg/rng/distributions.hpp"
#include "csecg/rng/xoshiro.hpp"
#include "csecg/sensing/lowres_channel.hpp"
#include "csecg/sensing/rmpi.hpp"

namespace csecg {
namespace {

using linalg::LinearOperator;
using linalg::Matrix;
using linalg::Vector;

// ---------------------------------------------------------------------------
// linalg edges.

TEST(OperatorEdges, EmptyOperatorApplyThrows) {
  const LinearOperator empty;
  EXPECT_THROW(empty.apply(Vector(1)), std::invalid_argument);
  EXPECT_THROW(empty.apply_adjoint(Vector(1)), std::invalid_argument);
}

TEST(OperatorEdges, NormOfZeroOperatorIsZero) {
  const Matrix zero(4, 4);
  EXPECT_DOUBLE_EQ(
      linalg::operator_norm_estimate(LinearOperator::from_matrix(zero), 20),
      0.0);
}

TEST(CholeskyEdges, OneByOne) {
  Matrix a(1, 1);
  a(0, 0) = 4.0;
  const linalg::Cholesky chol(a);
  EXPECT_DOUBLE_EQ(chol.factor()(0, 0), 2.0);
  const Vector x = chol.solve(Vector{8.0});
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

// ---------------------------------------------------------------------------
// dsp edges.

TEST(DwtEdges, SingleLevelOnMinimumLength) {
  // n = 2 with Haar: the smallest legal transform.
  const dsp::Dwt dwt(dsp::WaveletFamily::kHaar, 2, 1);
  const Vector x{3.0, 1.0};
  const Vector c = dwt.forward(x);
  const Vector rec = dwt.inverse(c);
  EXPECT_NEAR(rec[0], 3.0, 1e-12);
  EXPECT_NEAR(rec[1], 1.0, 1e-12);
}

TEST(DwtEdges, LongFilterOnShortSignalPeriodizes) {
  // db10 (20 taps) on a 16-sample band still reconstructs exactly thanks
  // to periodization.
  const dsp::Dwt dwt(dsp::WaveletFamily::kDb10, 16, 1);
  rng::Xoshiro256 gen(5);
  Vector x(16);
  for (auto& v : x) v = rng::normal(gen);
  const Vector rec = dwt.inverse(dwt.forward(x));
  for (std::size_t i = 0; i < 16; ++i) EXPECT_NEAR(rec[i], x[i], 1e-9);
}

// ---------------------------------------------------------------------------
// sensing edges.

TEST(RmpiEdges, ChipsAreStableAcrossCalls) {
  sensing::RmpiConfig config;
  config.channels = 8;
  config.window = 32;
  const sensing::RmpiSimulator a(config);
  const sensing::RmpiSimulator b(config);
  EXPECT_EQ(a.chips(), b.chips());
}

TEST(RmpiEdges, SingleChannel) {
  sensing::RmpiConfig config;
  config.channels = 1;
  config.window = 16;
  config.adc_bits = 0;
  const sensing::RmpiSimulator rmpi(config);
  const Vector x(16, 1.0);
  const Vector y = rmpi.measure(x);
  ASSERT_EQ(y.size(), 1u);
  // ±1 chips on a constant: |y| ≤ n, parity matches chip sum.
  double chip_sum = 0.0;
  for (std::size_t j = 0; j < 16; ++j) chip_sum += rmpi.chips()(0, j);
  EXPECT_DOUBLE_EQ(y[0], chip_sum);
}

TEST(LowResEdges, OneBitChannel) {
  const sensing::LowResChannel channel(sensing::LowResConfig{1, 11});
  EXPECT_DOUBLE_EQ(channel.step(), 1024.0);
  const auto out = channel.sample(Vector{0.0, 1023.0, 1024.0, 2047.0});
  EXPECT_EQ(out.codes, (std::vector<std::int64_t>{0, 0, 1, 1}));
}

// ---------------------------------------------------------------------------
// Huffman edges.

TEST(HuffmanEdges, ExpectedBitsWithEscape) {
  const auto book = coding::HuffmanCodebook::build({{0, 8}, {1, 2}});
  // Histogram containing a symbol outside the codebook costs escape_bits.
  const double avg =
      book.expected_bits_per_symbol({{0, 1}, {99, 1}}, 10.0);
  // 0 codes in 1 bit; 99 escapes at 10: mean 5.5.
  EXPECT_NEAR(avg, 5.5, 1e-12);
}

TEST(HuffmanEdges, TwoEqualSymbolsOneBitEach) {
  const auto book = coding::HuffmanCodebook::build({{-1, 5}, {1, 5}});
  EXPECT_EQ(book.code_length(-1), 1);
  EXPECT_EQ(book.code_length(1), 1);
}

TEST(HuffmanEdges, DeepSkewStillDecodes) {
  // Exponentially skewed counts create a maximal-depth code.
  std::vector<std::pair<std::int64_t, std::uint64_t>> hist;
  std::uint64_t c = 1;
  for (std::int64_t s = 0; s < 20; ++s) {
    hist.push_back({s, c});
    c *= 2;
  }
  const auto book = coding::HuffmanCodebook::build(hist);
  coding::BitWriter writer;
  for (const auto& [symbol, count] : hist) book.encode(symbol, writer);
  coding::BitReader reader(writer.finish());
  for (const auto& [symbol, count] : hist) {
    EXPECT_EQ(book.decode(reader), symbol);
  }
  EXPECT_EQ(book.code_length(0), 19);  // Deepest leaf.
  EXPECT_EQ(book.code_length(19), 1);  // Most frequent.
}

}  // namespace
}  // namespace csecg
