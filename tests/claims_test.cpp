// The paper's comparative claims, pinned on small slices of the seed-2015
// database: 4 records × 1 window through the design-point sweep and min-m
// search the Fig. 7/8 and §VI benches run, and 2 + 2 records × 4 windows
// through the side-channel sweep behind Fig. 4–6 and Table I.  Plus the
// bench budget parser those benches share.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"

namespace csecg::bench {
namespace {

constexpr std::size_t kRecords = 4;
constexpr std::size_t kWindows = 1;

TEST(Claims, HybridBeatsNormalCsAndConvergesAtEveryFig7Cr) {
  // Normal-CS convergence is not asserted: at the 2000-iteration cap some
  // high-CR normal-CS windows are still capped.
  const core::FrontEndConfig base;
  std::vector<std::size_t> ms;
  for (double cr : fig7_cr_grid()) ms.push_back(base.measurements_for_cr(cr));
  const auto points =
      sweep(at_measurements(base, ms),
            core::train_lowres_codec(base, shared_database()), kRecords,
            kWindows);
  ASSERT_EQ(points.size(), fig7_cr_grid().size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "CR " << fig7_cr_grid()[i]);
    EXPECT_GT(core::averaged_snr(points[i].hybrid),
              core::averaged_snr(points[i].normal));
    EXPECT_EQ(converged_fraction(points[i].hybrid), 1.0);
  }
}

TEST(Claims, HybridNeedsFewerChannelsThanNormalCsAt14Db) {
  const core::FrontEndConfig base;
  const auto points =
      sweep(at_measurements(base, headline_m_grid()),
            core::train_lowres_codec(base, shared_database()), kRecords,
            kWindows);
  const auto& hybrid = min_m(points, 14.0, core::DecodeMode::kHybrid);
  const auto& normal = min_m(points, 14.0, core::DecodeMode::kNormalCs);
  EXPECT_GE(core::averaged_snr(hybrid.hybrid), 14.0);
  EXPECT_GE(core::averaged_snr(normal.normal), 14.0);
  EXPECT_LT(hybrid.config.measurements, normal.config.measurements);
}

TEST(Claims, SideChannelCodersAtEveryDepth) {
  // Records 0-1 train, records 2-3 are held out.
  const auto depths = lowres_sweep(2, 2, 4);
  ASSERT_EQ(depths.size(), 8u);
  std::size_t previous_bytes = 0;
  for (const auto& depth : depths) {
    SCOPED_TRACE(::testing::Message() << depth.bits << " bits");
    const double scalar = depth.scalar_bits / depth.samples;
    // Shannon bound: no code beats the held-out delta entropy.
    EXPECT_LE(entropy_bits(depth.eval_deltas), scalar);
    // A scalar Huffman code spends at least 1 bit per sample.
    EXPECT_GE(scalar, 1.0);
    // Coding zero runs as units breaks that floor at low depths.
    if (depth.bits <= 6) {
      EXPECT_LT(depth.zero_run_bits / depth.samples, scalar);
    }
    // Fig. 5: the codebook grows with depth.
    EXPECT_GE(depth.scalar.codebook().storage_bytes(), previous_bytes);
    previous_bytes = depth.scalar.codebook().storage_bytes();
  }
}

TEST(MinM, FirstPointReachingTheTargetElseTheLast) {
  core::FrontEndConfig config;
  core::RecordReport low;
  low.mean_snr = 3.0;
  core::RecordReport high;
  high.mean_snr = 9.0;
  const std::vector<DesignPoint> points = {{config, {low}, {low}},
                                           {config, {high}, {low}}};
  EXPECT_EQ(&min_m(points, 5.0, core::DecodeMode::kHybrid), &points[1]);
  EXPECT_EQ(&min_m(points, 2.0, core::DecodeMode::kHybrid), &points[0]);
  EXPECT_EQ(&min_m(points, 5.0, core::DecodeMode::kNormalCs), &points[1]);
}

constexpr const char* kVar = "CSECG_CLAIMS_TEST_BUDGET";

TEST(BenchBudget, ParsesClampsAndFallsBack) {
  ::unsetenv(kVar);
  EXPECT_EQ(env_or(kVar, 8, 48), 8u);
  ::setenv(kVar, "12", 1);
  EXPECT_EQ(env_or(kVar, 8, 48), 12u);
  ::setenv(kVar, "100", 1);
  EXPECT_EQ(env_or(kVar, 8, 48), 48u);
  ::setenv(kVar, "123456789012345678901234567890", 1);
  EXPECT_EQ(env_or(kVar, 8, 48), 48u);
  ::unsetenv(kVar);
}

TEST(BenchBudget, RejectsUnparsableOrNonPositive) {
  // Re-executes the binary for each death test: another test in this
  // process may already have started the global pool's threads.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* bad : {"0", "abc", "4x", "", "-3", "+4", " 4"}) {
    SCOPED_TRACE(bad);
    EXPECT_EXIT(
        {
          ::setenv(kVar, bad, 1);
          env_or(kVar, 8, 48);
        },
        ::testing::ExitedWithCode(1), "expected a positive integer");
  }
}

}  // namespace
}  // namespace csecg::bench
