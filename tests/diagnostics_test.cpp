// Unit tests for sensing diagnostics (coherence, Welch bound, RIP proxy).
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "csecg/sensing/diagnostics.hpp"
#include "csecg/sensing/matrices.hpp"

namespace csecg {
namespace {

using linalg::Matrix;

// ---------------------------------------------------------------------------
// Coherence / Welch bound.

TEST(MutualCoherence, OrthogonalColumnsZero) {
  EXPECT_DOUBLE_EQ(sensing::mutual_coherence(Matrix::identity(4)), 0.0);
}

TEST(MutualCoherence, DuplicateColumnsOne) {
  Matrix a(3, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = 2.0 * static_cast<double>(i + 1);
  }
  EXPECT_NEAR(sensing::mutual_coherence(a), 1.0, 1e-12);
}

TEST(MutualCoherence, KnownPairValue) {
  // Columns (1,0) and (1,1)/√2: coherence = 1/√2.
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 1.0;
  a(1, 1) = 1.0;
  EXPECT_NEAR(sensing::mutual_coherence(a), 1.0 / std::numbers::sqrt2,
              1e-12);
}

TEST(MutualCoherence, Validation) {
  EXPECT_THROW(sensing::mutual_coherence(Matrix(3, 1)),
               std::invalid_argument);
  EXPECT_THROW(sensing::mutual_coherence(Matrix(3, 3)),
               std::invalid_argument);  // Zero columns.
}

TEST(WelchBound, KnownValuesAndValidation) {
  // m=2, n=4: √(2/(2·3)) = 1/√3.
  EXPECT_NEAR(sensing::welch_bound(2, 4), 1.0 / std::sqrt(3.0), 1e-12);
  EXPECT_THROW(sensing::welch_bound(4, 4), std::invalid_argument);
  EXPECT_THROW(sensing::welch_bound(0, 4), std::invalid_argument);
}

TEST(WelchBound, RademacherCoherenceAboveBound) {
  sensing::SensingConfig config;
  config.measurements = 32;
  config.window = 96;
  const Matrix phi = sensing::make_sensing_matrix(config);
  const double mu = sensing::mutual_coherence(phi);
  EXPECT_GE(mu, sensing::welch_bound(32, 96) - 1e-12);
  EXPECT_LT(mu, 0.8);  // Far from degenerate.
}

// ---------------------------------------------------------------------------
// RIP proxy.

TEST(RipEstimate, Validation) {
  const Matrix a(8, 16);
  EXPECT_THROW(sensing::restricted_isometry_estimate(a, 0, 3),
               std::invalid_argument);
  EXPECT_THROW(sensing::restricted_isometry_estimate(a, 9, 3),
               std::invalid_argument);
  EXPECT_THROW(sensing::restricted_isometry_estimate(a, 4, 0),
               std::invalid_argument);
}

TEST(RipEstimate, IdentityIsPerfectIsometry) {
  const auto est = sensing::restricted_isometry_estimate(
      Matrix::identity(16), 4, 5);
  EXPECT_NEAR(est.sigma_min, 1.0, 1e-6);
  EXPECT_NEAR(est.sigma_max, 1.0, 1e-6);
  EXPECT_NEAR(est.delta(), 0.0, 1e-5);
}

TEST(RipEstimate, GaussianNearIsometryAtLowSparsity) {
  sensing::SensingConfig config;
  config.ensemble = sensing::Ensemble::kGaussian;
  config.measurements = 96;
  config.window = 192;
  const Matrix phi = sensing::make_sensing_matrix(config);
  const auto est = sensing::restricted_isometry_estimate(phi, 4, 10, 7);
  EXPECT_GT(est.sigma_min, 0.6);
  EXPECT_LT(est.sigma_max, 1.4);
  EXPECT_LT(est.delta(), 1.0);
}

TEST(RipEstimate, DeltaGrowsWithSparsity) {
  sensing::SensingConfig config;
  config.measurements = 48;
  config.window = 128;
  const Matrix phi = sensing::make_sensing_matrix(config);
  const auto small_k = sensing::restricted_isometry_estimate(phi, 2, 20, 3);
  const auto big_k = sensing::restricted_isometry_estimate(phi, 24, 20, 3);
  EXPECT_LT(small_k.delta(), big_k.delta());
}

}  // namespace
}  // namespace csecg
