// Unit tests for csecg::recovery — proximal operators, the PDHG
// box-constrained BPDN solver (paper problem (1)) and its step sizes,
// stopping tests and exit reasons, and the FISTA LASSO cross-check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>

#include "csecg/core/frontend.hpp"
#include "csecg/linalg/matrix.hpp"
#include "csecg/linalg/operator.hpp"
#include "csecg/metrics/quality.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/recovery/fista.hpp"
#include "csecg/recovery/pdhg.hpp"
#include "csecg/recovery/prox.hpp"
#include "csecg/rng/distributions.hpp"
#include "csecg/rng/xoshiro.hpp"

namespace csecg::recovery {
namespace {

using linalg::LinearOperator;
using linalg::Matrix;
using linalg::Vector;

Matrix gaussian_matrix(std::size_t m, std::size_t n, std::uint64_t seed,
                       bool normalize = true) {
  rng::Xoshiro256 gen(seed);
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng::normal(gen);
  }
  if (normalize) linalg::normalize_columns(a);
  return a;
}

Vector sparse_vector(std::size_t n, std::size_t k, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  Vector x(n);
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t idx = 0;
    do {
      idx = static_cast<std::size_t>(rng::uniform_below(gen, n));
    } while (x[idx] != 0.0);
    // Amplitudes bounded away from zero so the support is well-posed.
    x[idx] = static_cast<double>(rng::rademacher(gen)) *
             rng::uniform(gen, 1.0, 3.0);
  }
  return x;
}

// ---------------------------------------------------------------------------
// Proximal operators.

TEST(Prox, SoftThresholdScalar) {
  EXPECT_DOUBLE_EQ(soft_threshold(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(soft_threshold(-3.0, 1.0), -2.0);
  EXPECT_DOUBLE_EQ(soft_threshold(0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(soft_threshold(-0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(soft_threshold(2.0, 0.0), 2.0);
}

// ---------------------------------------------------------------------------
// PDHG (problem (1) and the normal-CS baseline).

TEST(Pdhg, OptionsValidation) {
  PdhgOptions bad;
  bad.max_iterations = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  for (const double rho : {0.0, -1.0, 2.0, 2.5}) {
    bad = PdhgOptions{};
    bad.relaxation = rho;
    EXPECT_THROW(validate(bad), std::invalid_argument) << "rho " << rho;
  }
  bad = PdhgOptions{};
  bad.step_safety = 1.0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(Pdhg, DimensionValidation) {
  const Matrix a = gaussian_matrix(10, 32, 1);
  const auto phi = LinearOperator::from_matrix(a);
  const auto psi = LinearOperator::identity(32);
  EXPECT_THROW(solve_bpdn(phi, LinearOperator::identity(16), Vector(10), 0.1),
               std::invalid_argument);
  EXPECT_THROW(solve_bpdn(phi, psi, Vector(9), 0.1), std::invalid_argument);
  EXPECT_THROW(solve_bpdn(phi, psi, Vector(10), -1.0), std::invalid_argument);
  BoxConstraint box;
  box.lower = Vector(32, 1.0);
  box.upper = Vector(32, 0.0);  // Empty boxes.
  EXPECT_THROW(solve_bpdn(phi, psi, Vector(10), 0.1, box),
               std::invalid_argument);
}

TEST(Pdhg, RecoversSparseSignalNoiseless) {
  // Identity dictionary: x itself is sparse.
  const std::size_t n = 64;
  const std::size_t m = 32;
  const Matrix a = gaussian_matrix(m, n, 2);
  const Vector x_true = sparse_vector(n, 4, 3);
  const Vector y = linalg::multiply(a, x_true);
  PdhgOptions options;
  options.max_iterations = 5000;
  options.tol = 1e-9;
  const PdhgResult res = solve_bpdn(LinearOperator::from_matrix(a),
                                    LinearOperator::identity(n), y, 1e-8,
                                    std::nullopt, options);
  EXPECT_LT(linalg::norm2(res.x - x_true) / linalg::norm2(x_true), 1e-3);
}

TEST(Pdhg, ObjectiveNotWorseThanTruth) {
  // ℓ1 minimality: the solution's ℓ1 norm can't exceed the (feasible)
  // ground truth's by more than the tolerance slack.
  const std::size_t n = 64;
  const Matrix a = gaussian_matrix(24, n, 4);
  const Vector x_true = sparse_vector(n, 3, 5);
  const Vector y = linalg::multiply(a, x_true);
  PdhgOptions options;
  options.max_iterations = 4000;
  const PdhgResult res =
      solve_bpdn(LinearOperator::from_matrix(a), LinearOperator::identity(n),
                 y, 1e-6, std::nullopt, options);
  EXPECT_LE(res.objective, linalg::norm1(x_true) * (1.0 + 1e-2));
}

TEST(Pdhg, RespectsNoiseBall) {
  const std::size_t n = 64;
  const std::size_t m = 24;
  const Matrix a = gaussian_matrix(m, n, 6);
  const Vector x_true = sparse_vector(n, 3, 7);
  rng::Xoshiro256 gen(8);
  Vector y = linalg::multiply(a, x_true);
  for (auto& v : y) v += rng::normal(gen, 0.0, 0.01);
  const double sigma = 0.01 * std::sqrt(static_cast<double>(m)) * 1.5;
  PdhgOptions options;
  options.max_iterations = 3000;
  const PdhgResult res =
      solve_bpdn(LinearOperator::from_matrix(a), LinearOperator::identity(n),
                 y, sigma, std::nullopt, options);
  const double resid = linalg::norm2(linalg::multiply(a, res.x) - y);
  EXPECT_LE(resid, sigma * 1.02);
}

TEST(Pdhg, BoxConstraintHonored) {
  const std::size_t n = 64;
  const Matrix a = gaussian_matrix(16, n, 9);
  const Vector x_true = sparse_vector(n, 3, 10);
  const Vector y = linalg::multiply(a, x_true);
  BoxConstraint box;
  box.lower = Vector(n);
  box.upper = Vector(n);
  for (std::size_t i = 0; i < n; ++i) {
    box.lower[i] = x_true[i] - 0.05;
    box.upper[i] = x_true[i] + 0.05;
  }
  PdhgOptions options;
  options.max_iterations = 3000;
  const PdhgResult res =
      solve_bpdn(LinearOperator::from_matrix(a), LinearOperator::identity(n),
                 y, 1e-6, box, options);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(res.x[i], box.lower[i] - 0.005);
    EXPECT_LE(res.x[i], box.upper[i] + 0.005);
  }
  // Inside a ±0.05 box the error can't exceed the box diagonal.
  EXPECT_LT(linalg::norm_inf(res.x - x_true), 0.06);
}

TEST(Pdhg, HybridBeatsNormalAtFewMeasurements) {
  // The paper's central claim in miniature: with very few measurements,
  // the box side-information rescues recovery while normal CS fails.
  const std::size_t n = 128;
  const std::size_t m = 10;  // Far below the s·log(n/s) requirement.
  const Matrix a = gaussian_matrix(m, n, 11);
  const Vector x_true = sparse_vector(n, 8, 12);
  const Vector y = linalg::multiply(a, x_true);

  PdhgOptions options;
  options.max_iterations = 3000;
  const PdhgResult normal =
      solve_bpdn(LinearOperator::from_matrix(a), LinearOperator::identity(n),
                 y, 1e-6, std::nullopt, options);

  BoxConstraint box;
  box.lower = Vector(n);
  box.upper = Vector(n);
  for (std::size_t i = 0; i < n; ++i) {
    box.lower[i] = x_true[i] - 0.2;
    box.upper[i] = x_true[i] + 0.2;
  }
  const PdhgResult hybrid =
      solve_bpdn(LinearOperator::from_matrix(a), LinearOperator::identity(n),
                 y, 1e-6, box, options);

  const double err_normal = linalg::norm2(normal.x - x_true);
  const double err_hybrid = linalg::norm2(hybrid.x - x_true);
  EXPECT_LT(err_hybrid, 0.5 * err_normal);
}

TEST(Pdhg, WorksWithNonIdentityDictionary) {
  // Random orthonormal dictionary via QR of a Gaussian matrix: x = Qα with
  // sparse α.
  const std::size_t n = 32;
  Matrix g = gaussian_matrix(n, n, 13, false);
  // Gram-Schmidt (small n, fine numerically for a test).
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < j; ++k) {
      double proj = 0.0;
      for (std::size_t i = 0; i < n; ++i) proj += g(i, j) * g(i, k);
      for (std::size_t i = 0; i < n; ++i) g(i, j) -= proj * g(i, k);
    }
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) norm += g(i, j) * g(i, j);
    norm = std::sqrt(norm);
    for (std::size_t i = 0; i < n; ++i) g(i, j) /= norm;
  }
  const Vector alpha_true = sparse_vector(n, 3, 14);
  const Vector x_true = linalg::multiply(g, alpha_true);
  const Matrix a = gaussian_matrix(16, n, 15);
  const Vector y = linalg::multiply(a, x_true);
  PdhgOptions options;
  options.max_iterations = 5000;
  options.tol = 1e-9;
  const PdhgResult res =
      solve_bpdn(LinearOperator::from_matrix(a),
                 LinearOperator::from_matrix(g), y, 1e-8, std::nullopt,
                 options);
  EXPECT_LT(linalg::norm2(res.x - x_true) / linalg::norm2(x_true), 5e-3);
}

TEST(Pdhg, PhiNormHintGivesSameAnswer) {
  const std::size_t n = 64;
  const Matrix a = gaussian_matrix(24, n, 16);
  const Vector x_true = sparse_vector(n, 4, 17);
  const Vector y = linalg::multiply(a, x_true);
  PdhgOptions options;
  options.max_iterations = 2000;
  const PdhgResult base =
      solve_bpdn(LinearOperator::from_matrix(a), LinearOperator::identity(n),
                 y, 1e-6, std::nullopt, options);
  PdhgOptions hinted = options;
  hinted.phi_norm_hint =
      linalg::operator_norm_estimate(LinearOperator::from_matrix(a), 60);
  const PdhgResult with_hint =
      solve_bpdn(LinearOperator::from_matrix(a), LinearOperator::identity(n),
                 y, 1e-6, std::nullopt, hinted);
  EXPECT_LT(linalg::norm2(base.x - with_hint.x), 1e-6);
}

TEST(Pdhg, ReportsViolationsOnTinyBudget) {
  const std::size_t n = 32;
  const Matrix a = gaussian_matrix(16, n, 18);
  const Vector y = linalg::multiply(a, sparse_vector(n, 4, 19));
  PdhgOptions options;
  options.max_iterations = 3;  // Deliberately unconverged.
  const PdhgResult res =
      solve_bpdn(LinearOperator::from_matrix(a), LinearOperator::identity(n),
                 y, 1e-9, std::nullopt, options);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 3);
  EXPECT_GT(res.ball_violation, 0.0);
}

TEST(Pdhg, UnitRelaxationIsPlainChambollePock) {
  // At ρ = 1 the relaxed solver must be the textbook CP iteration, iterate
  // for iterate: the same x, iteration count and exit as this loop.
  const std::size_t n = 64;
  const std::size_t m = 24;
  const Matrix a = gaussian_matrix(m, n, 27);
  const Vector x_true = sparse_vector(n, 4, 28);
  const Vector y = linalg::multiply(a, x_true);
  BoxConstraint box;
  box.lower = Vector(n);
  box.upper = Vector(n);
  for (std::size_t i = 0; i < n; ++i) {
    box.lower[i] = x_true[i] - 0.1;
    box.upper[i] = x_true[i] + 0.15;
  }
  const double sigma = 1e-3;
  const auto phi = LinearOperator::from_matrix(a);
  const auto psi = LinearOperator::identity(n);
  PdhgOptions options;
  options.max_iterations = 3000;
  options.tol = 1e-7;
  options.dual_primal_ratio = 0.1;
  options.phi_norm_hint = linalg::operator_norm_estimate(phi, 60);
  ASSERT_EQ(options.relaxation, 1.0);
  const PdhgResult res = solve_bpdn(phi, psi, y, sigma, box, options);

  const PdhgSteps steps = step_sizes(options.phi_norm_hint, true, options);
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 0.5 * (box.lower[i] + box.upper[i]);
  }
  Vector x_bar = x;
  Vector x_prev_check = x;
  Vector q1(m);
  Vector q2(n);
  Vector w(m);
  Vector scaled(m);
  Vector diff(m);
  Vector grad(n);
  Vector x_new(n);
  Vector coeffs(n);
  const double y_scale = std::max(linalg::norm2(y), 1.0);
  int iterations = 0;
  PdhgExit exit = PdhgExit::kCapChange;
  for (int it = 1; it <= options.max_iterations; ++it) {
    phi.apply_into(x_bar, w);
    for (std::size_t i = 0; i < m; ++i) {
      w[i] = w[i] * steps.sigma_ball + q1[i];
      scaled[i] = w[i] / steps.sigma_ball;
      diff[i] = scaled[i] - y[i];
    }
    const double dist = linalg::norm2(diff);
    for (std::size_t i = 0; i < m; ++i) {
      q1[i] = dist <= sigma
                  ? w[i] - steps.sigma_ball * scaled[i]
                  : w[i] - steps.sigma_ball *
                               (y[i] + sigma / dist * diff[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double v = q2[i] + steps.sigma_box * x_bar[i];
      q2[i] = v - steps.sigma_box * std::clamp(v / steps.sigma_box,
                                               box.lower[i], box.upper[i]);
    }
    phi.apply_adjoint_into(q1, grad);
    grad += q2;
    for (std::size_t i = 0; i < n; ++i) x_new[i] = x[i] - steps.tau * grad[i];
    psi.apply_adjoint_into(x_new, coeffs);
    for (std::size_t i = 0; i < n; ++i) {
      coeffs[i] = soft_threshold(coeffs[i], steps.tau);
    }
    psi.apply_into(coeffs, x_new);
    for (std::size_t i = 0; i < n; ++i) {
      x_bar[i] = x_new[i] + (x_new[i] - x[i]);
    }
    std::swap(x, x_new);
    iterations = it;
    if (it % options.check_every != 0) continue;
    const double rel_change = linalg::norm2(x - x_prev_check) /
                              std::max(linalg::norm2(x), 1.0);
    x_prev_check = x;
    const double ball_viol =
        std::max(0.0, linalg::norm2(phi.apply(x) - y) - sigma);
    double box_viol_rel = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double inv_width = 1.0 / (box.upper[i] - box.lower[i]);
      box_viol_rel = std::max(
          box_viol_rel,
          std::max(box.lower[i] - x[i], x[i] - box.upper[i]) * inv_width);
    }
    if (ball_viol > options.feasibility_tol * y_scale) {
      exit = PdhgExit::kCapBall;
    } else if (box_viol_rel > options.feasibility_tol) {
      exit = PdhgExit::kCapBox;
    } else if (rel_change > options.tol) {
      exit = PdhgExit::kCapChange;
    } else {
      exit = PdhgExit::kConverged;
      break;
    }
  }

  EXPECT_EQ(res.exit, PdhgExit::kConverged);
  EXPECT_GT(res.iterations, 10 * options.check_every);
  EXPECT_EQ(res.iterations, iterations);
  EXPECT_EQ(res.exit, exit);
  EXPECT_EQ(res.x, x);
}

TEST(PdhgSteps, BoxStepsMeetChambollePockCondition) {
  // With a box, K = [Φ; I] gets block-diagonal dual steps; the CP
  // condition τ·(σ_ball‖Φ‖² + σ_box) ≤ s² must hold for any ‖Φ‖ and ratio.
  for (const double phi_norm : {0.5, 1.0, 4.0, 32.0, 300.0}) {
    for (const double ratio : {0.01, 1.0, 5.0}) {
      PdhgOptions options;
      options.dual_primal_ratio = ratio;
      const PdhgSteps steps = step_sizes(phi_norm, true, options);
      const double s = options.step_safety;
      EXPECT_LE(steps.tau * (steps.sigma_ball * phi_norm * phi_norm +
                             steps.sigma_box),
                s * s * (1.0 + 1e-12))
          << "phi_norm " << phi_norm << " ratio " << ratio;
      // τ is unchanged from the single-step rule on ‖K‖ = √(‖Φ‖²+1).
      EXPECT_DOUBLE_EQ(steps.tau,
                       s / (std::sqrt(phi_norm * phi_norm + 1.0) *
                            std::sqrt(ratio)));
      // The identity block gets a ‖Φ‖²-times larger step than the ball.
      EXPECT_NEAR(steps.sigma_box / steps.sigma_ball, phi_norm * phi_norm,
                  1e-9 * phi_norm * phi_norm);
    }
  }
}

TEST(PdhgSteps, NoBoxStepsAreTheSingleStepRule) {
  // Without a box the steps are τ = s/(‖Φ‖√r), σ = s√r/‖Φ‖, bit for bit.
  for (const double phi_norm : {0.5, 1.0, 32.0}) {
    for (const double ratio : {0.01, 1.0}) {
      PdhgOptions options;
      options.dual_primal_ratio = ratio;
      const PdhgSteps steps = step_sizes(phi_norm, false, options);
      const double k_norm = std::max(phi_norm, 1e-12);
      const double ratio_sqrt = std::sqrt(ratio);
      EXPECT_EQ(steps.tau, options.step_safety / (k_norm * ratio_sqrt));
      EXPECT_EQ(steps.sigma_ball, options.step_safety * ratio_sqrt / k_norm);
      EXPECT_EQ(steps.sigma_box, 0.0);
    }
  }
}

TEST(Pdhg, BoxFeasibilityIsPerSampleWidth) {
  // One rail-wide cell must not loosen the feasibility test on the narrow
  // cells.  Make x-change pass trivially and the ball inactive, start one
  // narrow cell 2 units outside its box and stop after one iteration: the
  // narrow cell still violates by ~1 unit, which against its own 16-unit
  // width is far above feasibility_tol (against the 2048-unit rail cell it
  // would pass).
  const std::size_t n = 16;
  const Matrix a = gaussian_matrix(8, n, 20);
  BoxConstraint box;
  box.lower = Vector(n, 100.0);
  box.upper = Vector(n, 116.0);
  box.lower[0] = -1024.0;  // Rail cell (low-res sample lost).
  box.upper[0] = 1024.0;
  Vector x0(n, 108.0);
  x0[5] = 118.0;  // 2 units above its cell.
  const Vector y = linalg::multiply(a, x0);
  PdhgOptions options;
  options.max_iterations = 1;
  options.check_every = 1;
  options.tol = 1.0;
  options.feasibility_tol = 1e-3;
  options.x0 = x0;
  const PdhgResult res =
      solve_bpdn(LinearOperator::from_matrix(a), LinearOperator::identity(n),
                 y, 1e3, box, options);
  EXPECT_GT(res.box_violation, 0.5);
  EXPECT_LT(res.box_violation, 2.0);
  EXPECT_LT(res.box_violation, options.feasibility_tol * 2048.0);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.exit, PdhgExit::kCapBox);
}

TEST(Pdhg, ExitReasonNamesTheFailingTest) {
  const std::size_t n = 32;
  const Matrix a = gaussian_matrix(16, n, 18);
  const Vector y = linalg::multiply(a, sparse_vector(n, 4, 19));
  const auto phi = LinearOperator::from_matrix(a);
  const auto psi = LinearOperator::identity(n);
  obs::Counter& ball = obs::counter("solver.pdhg.exit.ball");
  obs::Counter& change = obs::counter("solver.pdhg.exit.x_change");
  obs::Counter& converged = obs::counter("solver.pdhg.exit.converged");

  // Starved budget: the residual is still far outside the ball.
  PdhgOptions starved;
  starved.max_iterations = 3;
  const std::uint64_t ball_before = ball.value();
  const PdhgResult capped = solve_bpdn(phi, psi, y, 1e-9, std::nullopt,
                                       starved);
  EXPECT_EQ(capped.exit, PdhgExit::kCapBall);
  EXPECT_STREQ(exit_name(capped.exit), "ball");
  EXPECT_EQ(ball.value(), ball_before + 1);

  // Inside a generous ball from the start, but three iterations of
  // shrinkage still move x far from its warm start.
  PdhgOptions moving;
  moving.max_iterations = 3;
  moving.x0 = sparse_vector(n, 4, 19);
  const std::uint64_t change_before = change.value();
  const PdhgResult stalled = solve_bpdn(phi, psi, y, 1e6, std::nullopt,
                                        moving);
  EXPECT_EQ(stalled.exit, PdhgExit::kCapChange);
  EXPECT_STREQ(exit_name(stalled.exit), "x_change");
  EXPECT_EQ(change.value(), change_before + 1);

  // A converged solve says so.
  PdhgOptions loose;
  loose.max_iterations = 5000;
  const std::uint64_t converged_before = converged.value();
  const PdhgResult done = solve_bpdn(phi, psi, y, 1e-3, std::nullopt, loose);
  EXPECT_TRUE(done.converged);
  EXPECT_EQ(done.exit, PdhgExit::kConverged);
  EXPECT_STREQ(exit_name(done.exit), "converged");
  EXPECT_EQ(converged.value(), converged_before + 1);
}

/// Decodes the first window of each listed record of the seed-2015
/// database (the decode benchmark's set) under `config` and expects every
/// solve to converge under the default cap, within 0.05 dB of a
/// 30000-iteration, tol-1e-8 solve.
void expect_default_solves_converge(
    const core::FrontEndConfig& config,
    std::initializer_list<std::size_t> records) {
  const ecg::SyntheticDatabase database(ecg::RecordConfig{}, 2015);
  std::optional<coding::DeltaHuffmanCodec> lowres_codec;
  if (config.lowres_bits > 0) {
    lowres_codec = core::train_lowres_codec(config, database);
  }
  const core::Encoder encoder(config, lowres_codec);
  const core::Decoder decoder(config, lowres_codec);
  core::FrontEndConfig reference_config = config;
  reference_config.solver.max_iterations = 30000;
  reference_config.solver.tol = 1e-8;
  const core::Decoder reference(reference_config, lowres_codec);
  for (const std::size_t r : records) {
    const Vector window =
        ecg::extract_windows(database.record(r), config.window, 4)[0];
    const core::Frame frame = encoder.encode(window);
    const core::DecodeResult result = decoder.decode(frame);
    const core::DecodeResult exact = reference.decode(frame);
    ASSERT_EQ(result.used_box, config.lowres_bits > 0);
    EXPECT_TRUE(result.solver.converged)
        << "record " << r << " exit " << exit_name(result.solver.exit);
    EXPECT_LT(result.solver.iterations, config.solver.max_iterations);
    EXPECT_TRUE(exact.solver.converged) << "record " << r;
    const double snr = metrics::snr_from_prd(
        metrics::prd_zero_mean(window, result.x));
    const double snr_exact = metrics::snr_from_prd(
        metrics::prd_zero_mean(window, exact.x));
    EXPECT_NEAR(snr, snr_exact, 0.05) << "record " << r;
  }
}

TEST(Pdhg, DefaultConfigHybridWindowsConverge) {
  expect_default_solves_converge(core::FrontEndConfig{}, {0, 1, 2, 3});
}

TEST(Pdhg, DefaultConfigNormalCsWindowsConverge) {
  // Normal-CS baseline (m = 256, no side channel, so no box).  Records 4,
  // 5, 8 and 10 are ones whose first window hits the cap at the old
  // dual_primal_ratio 0.01.
  core::FrontEndConfig config;
  config.measurements = 256;
  config.lowres_bits = 0;
  expect_default_solves_converge(config, {4, 5, 8, 10});
}

/// Decodes the first window of each listed record under `config` (the
/// relaxed default) and again at ρ = 1, plain CP.  Expects the default to
/// need at most 0.8× plain CP's summed iterations, with both within
/// 0.05 dB of a 30000-iteration, tol-1e-8 solve.
void expect_relaxation_cuts_iterations(
    const core::FrontEndConfig& config,
    std::initializer_list<std::size_t> records) {
  const ecg::SyntheticDatabase database(ecg::RecordConfig{}, 2015);
  std::optional<coding::DeltaHuffmanCodec> lowres_codec;
  if (config.lowres_bits > 0) {
    lowres_codec = core::train_lowres_codec(config, database);
  }
  const core::Encoder encoder(config, lowres_codec);
  const core::Decoder relaxed(config, lowres_codec);
  core::FrontEndConfig plain_config = config;
  plain_config.solver.relaxation = 1.0;
  const core::Decoder plain(plain_config, lowres_codec);
  core::FrontEndConfig reference_config = config;
  reference_config.solver.max_iterations = 30000;
  reference_config.solver.tol = 1e-8;
  const core::Decoder reference(reference_config, lowres_codec);
  int relaxed_iterations = 0;
  int plain_iterations = 0;
  for (const std::size_t r : records) {
    const Vector window =
        ecg::extract_windows(database.record(r), config.window, 4)[0];
    const core::Frame frame = encoder.encode(window);
    const auto snr_of = [&](const core::DecodeResult& result) {
      return metrics::snr_from_prd(metrics::prd_zero_mean(window, result.x));
    };
    const core::DecodeResult fast = relaxed.decode(frame);
    const core::DecodeResult slow = plain.decode(frame);
    const core::DecodeResult exact = reference.decode(frame);
    EXPECT_TRUE(fast.solver.converged) << "record " << r;
    EXPECT_TRUE(slow.solver.converged) << "record " << r;
    EXPECT_NEAR(snr_of(fast), snr_of(exact), 0.05) << "record " << r;
    EXPECT_NEAR(snr_of(slow), snr_of(exact), 0.05) << "record " << r;
    relaxed_iterations += fast.solver.iterations;
    plain_iterations += slow.solver.iterations;
  }
  EXPECT_LE(relaxed_iterations, 0.8 * plain_iterations)
      << "relaxed " << relaxed_iterations << " vs plain CP "
      << plain_iterations;
}

TEST(Pdhg, DefaultRelaxationCutsIterations) {
  // The records of DefaultConfig{Hybrid,NormalCs}WindowsConverge.
  expect_relaxation_cuts_iterations(core::FrontEndConfig{}, {0, 1, 2, 3});
  core::FrontEndConfig normal;
  normal.measurements = 256;
  normal.lowres_bits = 0;
  expect_relaxation_cuts_iterations(normal, {4, 5, 8, 10});
}

// ---------------------------------------------------------------------------
// FISTA.

TEST(Fista, OptionsValidation) {
  FistaOptions bad;
  bad.max_iterations = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(Fista, RecoversSparseSignal) {
  const std::size_t n = 128;
  const Matrix a = gaussian_matrix(48, n, 20);
  const Vector alpha_true = sparse_vector(n, 5, 21);
  const Vector y = linalg::multiply(a, alpha_true);
  FistaOptions options;
  options.max_iterations = 2000;
  const FistaResult res =
      solve_lasso_fista(LinearOperator::from_matrix(a), y, 1e-4, options);
  EXPECT_LT(linalg::norm2(res.coefficients - alpha_true) /
                linalg::norm2(alpha_true),
            0.02);
}

TEST(Fista, LambdaControlsSparsity) {
  const std::size_t n = 128;
  const Matrix a = gaussian_matrix(48, n, 22);
  rng::Xoshiro256 gen(220);
  Vector y = linalg::multiply(a, sparse_vector(n, 5, 23));
  // Noise makes the small-λ solution overfit with a dense support.
  for (auto& v : y) v += rng::normal(gen, 0.0, 0.05);
  const auto op = LinearOperator::from_matrix(a);
  FistaOptions options;
  options.max_iterations = 1000;
  const FistaResult loose = solve_lasso_fista(op, y, 1e-3, options);
  const FistaResult tight = solve_lasso_fista(op, y, 0.5, options);
  EXPECT_LT(linalg::count_above(tight.coefficients, 1e-8),
            linalg::count_above(loose.coefficients, 1e-8));
}

TEST(Fista, RejectsBadLambdaAndDims) {
  const Matrix a = gaussian_matrix(8, 16, 24);
  const auto op = LinearOperator::from_matrix(a);
  EXPECT_THROW(solve_lasso_fista(op, Vector(8), 0.0), std::invalid_argument);
  EXPECT_THROW(solve_lasso_fista(op, Vector(7), 0.1), std::invalid_argument);
}

}  // namespace
}  // namespace csecg::recovery
