// The paper's comparative claims, pinned on a small slice of the seed-2015
// database (4 records × 1 window) through the same design-point sweep and
// min-m search the Fig. 7/8 and §VI benches run, plus the bench budget
// parser those benches share.
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
