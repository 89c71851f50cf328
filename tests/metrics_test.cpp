// Unit tests for csecg::metrics — PRD/SNR/CR definitions and the summary /
// box-plot statistics used by the experiment harness.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "csecg/metrics/quality.hpp"
#include "csecg/metrics/stats.hpp"

namespace csecg::metrics {
namespace {

using linalg::Vector;

TEST(Prd, PerfectReconstructionIsZero) {
  const Vector x{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(prd(x, x), 0.0);
}

TEST(Prd, KnownValue) {
  const Vector x{3.0, 4.0};          // ‖x‖ = 5
  const Vector y{3.0, 3.0};          // error norm = 1
  EXPECT_DOUBLE_EQ(prd(x, y), 20.0);  // 1/5·100
}

TEST(Prd, MismatchedSizesThrow) {
  EXPECT_THROW(prd(Vector{1.0}, Vector{1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(prd(Vector{}, Vector{}), std::invalid_argument);
  EXPECT_THROW(prd(Vector{0.0, 0.0}, Vector{1.0, 1.0}),
               std::invalid_argument);
}

TEST(Prd, ZeroMeanVariantIgnoresSharedBaseline) {
  // Raw PRD shrinks when a large DC offset inflates ‖x‖; the zero-mean
  // variant is invariant to it.
  const Vector x{1.0, -1.0, 1.0, -1.0};
  const Vector y{0.5, -0.5, 0.5, -0.5};
  Vector x_off = x;
  Vector y_off = y;
  for (std::size_t i = 0; i < 4; ++i) {
    x_off[i] += 1000.0;
    y_off[i] += 1000.0;
  }
  EXPECT_NEAR(prd_zero_mean(x, y), prd_zero_mean(x_off, y_off), 1e-9);
  EXPECT_LT(prd(x_off, y_off), prd(x, y));
}

TEST(Prd, ZeroMeanConstantReferenceThrows) {
  EXPECT_THROW(prd_zero_mean(Vector{2.0, 2.0}, Vector{1.0, 1.0}),
               std::invalid_argument);
}

TEST(Snr, PrdSnrRoundTrip) {
  for (double p : {0.5, 1.0, 5.0, 20.0, 100.0}) {
    EXPECT_NEAR(100.0 * std::pow(10.0, -snr_from_prd(p) / 20.0), p, 1e-9);
  }
}

TEST(Snr, PaperAnchorValues) {
  // PRD = 1% ⇒ SNR = 40 dB; PRD = 10% ⇒ 20 dB; PRD = 100% ⇒ 0 dB.
  EXPECT_NEAR(snr_from_prd(1.0), 40.0, 1e-12);
  EXPECT_NEAR(snr_from_prd(10.0), 20.0, 1e-12);
  EXPECT_NEAR(snr_from_prd(100.0), 0.0, 1e-12);
}

TEST(Snr, PerfectReconstructionReturnsCapInsteadOfThrowing) {
  // A window that reconstructs exactly (PRD == 0, reachable via the
  // zero-loss decode_lossy fallback on a constant window) is a success;
  // it must not abort the whole run (ISSUE 3).
  EXPECT_DOUBLE_EQ(snr_from_prd(0.0), kSnrCapDb);
  EXPECT_DOUBLE_EQ(snr_from_prd(kPrdFloorPercent), kSnrCapDb);
  EXPECT_DOUBLE_EQ(snr_from_prd(kPrdFloorPercent / 10.0), kSnrCapDb);
  // Just above the floor: the exact formula again, continuous at the cap.
  EXPECT_NEAR(snr_from_prd(kPrdFloorPercent * 1.0001), kSnrCapDb, 1e-2);
}

TEST(Snr, NegativeOrNanPrdStillThrows) {
  EXPECT_THROW(snr_from_prd(-1.0), std::invalid_argument);
  EXPECT_THROW(snr_from_prd(std::nan("")), std::invalid_argument);
}

TEST(Snr, IdenticalSignalsYieldCappedSnrEndToEnd) {
  const Vector x{3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(snr(x, x), kSnrCapDb);
}

TEST(Snr, DirectMatchesViaPrd) {
  const Vector x{3.0, 4.0};
  const Vector y{3.0, 3.0};
  EXPECT_NEAR(snr(x, y), snr_from_prd(prd(x, y)), 1e-12);
}

TEST(CompressionRatio, Equation3) {
  EXPECT_DOUBLE_EQ(compression_ratio(1000, 500), 50.0);
  EXPECT_DOUBLE_EQ(compression_ratio(1000, 1000), 0.0);
  EXPECT_DOUBLE_EQ(compression_ratio(1000, 0), 100.0);
  // Expansion yields a negative CR rather than a silent clamp.
  EXPECT_DOUBLE_EQ(compression_ratio(1000, 1200), -20.0);
  EXPECT_THROW(compression_ratio(0, 10), std::invalid_argument);
}

TEST(Overhead, Equation2PaperAnchor) {
  // Paper §IV: 7-bit channel ⇒ 7.86% overhead ⇒ compressed fraction 13.47%.
  const double di = side_channel_overhead(0.1347, 7);
  EXPECT_NEAR(di, 7.86, 0.01);
  EXPECT_THROW(side_channel_overhead(-0.1, 7), std::invalid_argument);
  EXPECT_THROW(side_channel_overhead(0.5, 0), std::invalid_argument);
}

TEST(Overhead, ScalesLinearlyInBits) {
  const double d4 = side_channel_overhead(0.25, 4);
  const double d8 = side_channel_overhead(0.25, 8);
  EXPECT_NEAR(d8, 2.0 * d4, 1e-12);
}

TEST(NetCr, PaperAnchor) {
  // 81% CS CR − 7.86% overhead ≈ 73.14% net (paper §V).
  EXPECT_NEAR(net_compression_ratio(81.0, 7.86), 73.14, 1e-9);
}

TEST(Summary, BasicMoments) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Summary, SingleValue) {
  const Summary s = summarize({7.0});
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
}

TEST(Summary, EmptyThrows) {
  EXPECT_THROW(summarize({}), std::invalid_argument);
}

TEST(Percentile, LinearInterpolation) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 17.5);
}

TEST(Percentile, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(percentile({30.0, 10.0, 20.0}, 50.0), 20.0);
}

TEST(Percentile, Validation) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(BoxStats, NoOutliers) {
  const BoxStats b = box_stats({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(b.median, 3.0);
  EXPECT_DOUBLE_EQ(b.q1, 2.0);
  EXPECT_DOUBLE_EQ(b.q3, 4.0);
  EXPECT_DOUBLE_EQ(b.whisker_low, 1.0);
  EXPECT_DOUBLE_EQ(b.whisker_high, 5.0);
  EXPECT_TRUE(b.outliers.empty());
}

TEST(BoxStats, DetectsOutliers) {
  // 100 is far beyond q3 + 1.5·IQR.
  const BoxStats b = box_stats({1.0, 2.0, 3.0, 4.0, 5.0, 100.0});
  ASSERT_EQ(b.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(b.outliers[0], 100.0);
  // Whisker stops at the most extreme inlier, matching MATLAB boxplot.
  EXPECT_DOUBLE_EQ(b.whisker_high, 5.0);
}

TEST(BoxStats, AllEqualValues) {
  const BoxStats b = box_stats({2.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(b.q1, 2.0);
  EXPECT_DOUBLE_EQ(b.q3, 2.0);
  EXPECT_DOUBLE_EQ(b.whisker_low, 2.0);
  EXPECT_DOUBLE_EQ(b.whisker_high, 2.0);
  EXPECT_TRUE(b.outliers.empty());
}

TEST(MadOutliers, KnownFence) {
  // median = 20, |v − 20| = {10, 5, 0, 5, 10} → MAD = 5.
  const std::vector<double> values{10.0, 15.0, 20.0, 25.0, 30.0};
  EXPECT_DOUBLE_EQ(mad_low_threshold(values, 2.0),
                   20.0 - 2.0 * 1.4826 * 5.0);
}

TEST(MadOutliers, FlagsOnlyTheLowTail) {
  // One window collapsed; the fence must catch it and nothing else.
  const std::vector<double> values{21.0, 22.0, 20.0, 21.5, 2.0, 22.5};
  const auto outliers = mad_low_outliers(values);
  ASSERT_EQ(outliers.size(), 1u);
  EXPECT_EQ(outliers[0], 4u);
  // A symmetric high value is NOT flagged: the fence is one-sided (low
  // quality hurts; unusually good windows do not).
  const std::vector<double> high{21.0, 22.0, 20.0, 21.5, 40.0, 22.5};
  EXPECT_TRUE(mad_low_outliers(high).empty());
}

TEST(MadOutliers, DegenerateMadFlagsNothing) {
  // All-equal samples: MAD = 0, fence = median, and the comparison is
  // strict, so nothing is an outlier.
  const std::vector<double> values{7.0, 7.0, 7.0, 7.0};
  EXPECT_DOUBLE_EQ(mad_low_threshold(values), 7.0);
  EXPECT_TRUE(mad_low_outliers(values).empty());
}

TEST(MadOutliers, EmptyAndNegativeKThrow) {
  EXPECT_THROW(mad_low_threshold({}), std::invalid_argument);
  EXPECT_THROW(mad_low_threshold({1.0}, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace csecg::metrics
