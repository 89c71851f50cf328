#include "csecg/recovery/pdhg.hpp"

#include <algorithm>
#include <cmath>

#include "csecg/common/check.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"
#include "csecg/recovery/prox.hpp"

namespace csecg::recovery {

void validate(const PdhgOptions& options) {
  CSECG_CHECK(options.max_iterations > 0, "PdhgOptions: max_iterations <= 0");
  CSECG_CHECK(options.tol > 0.0, "PdhgOptions: tol must be positive");
  CSECG_CHECK(options.feasibility_tol > 0.0,
              "PdhgOptions: feasibility_tol must be positive");
  CSECG_CHECK(options.check_every > 0, "PdhgOptions: check_every <= 0");
  CSECG_CHECK(options.relaxation > 0.0 && options.relaxation < 2.0,
              "PdhgOptions: relaxation must be in (0, 2)");
  CSECG_CHECK(options.step_safety > 0.0 && options.step_safety < 1.0,
              "PdhgOptions: step_safety must be in (0, 1)");
  CSECG_CHECK(options.dual_primal_ratio > 0.0,
              "PdhgOptions: dual_primal_ratio must be positive");
  CSECG_CHECK(options.phi_norm_hint >= 0.0,
              "PdhgOptions: phi_norm_hint must be non-negative");
}

PdhgSteps step_sizes(double phi_norm, bool with_box,
                     const PdhgOptions& options) {
  const double s = options.step_safety;
  const double ratio_sqrt = std::sqrt(options.dual_primal_ratio);
  PdhgSteps steps;
  if (!with_box) {
    const double k_norm = std::max(phi_norm, 1e-12);
    steps.tau = s / (k_norm * ratio_sqrt);
    steps.sigma_ball = s * ratio_sqrt / k_norm;
    return steps;
  }
  const double k_norm = std::sqrt(phi_norm * phi_norm + 1.0);
  steps.tau = s / (k_norm * ratio_sqrt);
  const double half_budget = s * s / (2.0 * steps.tau);
  steps.sigma_ball = half_budget / std::max(phi_norm * phi_norm, 1e-24);
  steps.sigma_box = half_budget;
  return steps;
}

const char* exit_name(PdhgExit exit) noexcept {
  switch (exit) {
    case PdhgExit::kConverged:
      return "converged";
    case PdhgExit::kCapBall:
      return "ball";
    case PdhgExit::kCapBox:
      return "box";
    case PdhgExit::kCapChange:
      return "x_change";
  }
  return "unknown";
}

PdhgResult solve_bpdn(const linalg::LinearOperator& phi,
                      const linalg::LinearOperator& psi,
                      const linalg::Vector& y, double sigma,
                      const std::optional<BoxConstraint>& box,
                      const PdhgOptions& options) {
  static obs::Histogram& solve_hist = obs::histogram("solver.pdhg.solve_ns");
  obs::TraceScope solve_scope("solver.pdhg.solve", "solver", &solve_hist,
                              "iterations");
  validate(options);
  const std::size_t m = phi.rows();
  const std::size_t n = phi.cols();
  CSECG_CHECK(psi.rows() == n && psi.cols() == n,
              "solve_bpdn: psi must be n x n with n = " << n);
  CSECG_CHECK(y.size() == m, "solve_bpdn: y has " << y.size()
                                                  << " entries, expected "
                                                  << m);
  CSECG_CHECK(sigma >= 0.0, "solve_bpdn: sigma must be non-negative");
  if (box) {
    CSECG_CHECK(box->lower.size() == n && box->upper.size() == n,
                "solve_bpdn: box dimension mismatch");
    for (std::size_t i = 0; i < n; ++i) {
      CSECG_CHECK(box->lower[i] <= box->upper[i],
                  "solve_bpdn: empty box at sample " << i);
    }
  }

  const double phi_norm = options.phi_norm_hint > 0.0
                              ? options.phi_norm_hint
                              : linalg::operator_norm_estimate(phi, 60);
  const auto [tau, sigma_ball, sigma_box] =
      step_sizes(phi_norm, box.has_value(), options);

  // Warm start: caller-provided, else box midpoint (already nearly
  // feasible), else zero.  x is the relaxed primal state each primal step
  // starts from; x_new holds that step's prox output x̃, which the
  // stopping tests judge and the solve returns.
  linalg::Vector x(n);
  if (!options.x0.empty()) {
    CSECG_CHECK(options.x0.size() == n,
                "solve_bpdn: x0 has " << options.x0.size()
                                      << " entries, expected " << n);
    x = options.x0;
  } else if (box) {
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = 0.5 * (box->lower[i] + box->upper[i]);
    }
  }
  linalg::Vector x_bar = x;
  linalg::Vector q1(m);
  linalg::Vector q2(box ? n : 0);

  // Per-solve workspaces, reused every iteration so the loop itself is
  // allocation-free (the operators' *_into paths write in place).
  linalg::Vector w_m(m);       // σ_ball·Φx̄ + q1.
  linalg::Vector scaled_m(m);  // w_m / σ_ball (the point to project).
  linalg::Vector diff_m(m);    // scaled_m − y.
  linalg::Vector grad(n);      // Φᵀq1.
  linalg::Vector x_new(n);     // x̃.
  linalg::Vector coeffs(n);
  linalg::Vector check_diff(n);

  // Feasibility scales: ‖y‖ for the ball; for the box, each sample's own
  // cell width, so one wide (e.g. rail-to-rail) cell cannot loosen the
  // test on the narrow ones.
  const double y_scale = std::max(linalg::norm2(y), 1.0);
  linalg::Vector inv_width(box ? n : 0);
  for (std::size_t i = 0; i < inv_width.size(); ++i) {
    inv_width[i] = 1.0 / std::max(box->upper[i] - box->lower[i], 1e-12);
  }

  // Relaxation: each block's state moves to ρ·(prox output) + (1−ρ)·state
  // in the loop that writes it.  ρ = 1 is plain CP, iterate for iterate.
  const double rho = options.relaxation;
  const double keep = 1.0 - rho;

  PdhgResult result;
  linalg::Vector x_prev_check = x;

  for (int it = 1; it <= options.max_iterations; ++it) {
    // Dual ascent on the ball block: q̃1 = Moreau(q1 + σ_ball·Φx̄), then
    // q1 ← ρ·q̃1 + (1−ρ)·q1.
    {
      phi.apply_into(x_bar, w_m);
      // w_m, the point scaled_m to project onto the σ-ball around y, and
      // its offset diff_m from y, in one pass.
      for (std::size_t i = 0; i < m; ++i) {
        const double w = w_m[i] * sigma_ball + q1[i];
        const double scaled = w / sigma_ball;
        w_m[i] = w;
        scaled_m[i] = scaled;
        diff_m[i] = scaled - y[i];
      }
      const double dist = linalg::norm2(diff_m);
      if (dist <= sigma) {
        for (std::size_t i = 0; i < m; ++i) {
          q1[i] = rho * (w_m[i] - sigma_ball * scaled_m[i]) + keep * q1[i];
        }
      } else {
        const double scale = sigma / dist;
        for (std::size_t i = 0; i < m; ++i) {
          q1[i] = rho * (w_m[i] - sigma_ball * (y[i] + scale * diff_m[i])) +
                  keep * q1[i];
        }
      }
    }
    // Dual ascent on the box block, with its own step σ_box.
    if (box) {
      for (std::size_t i = 0; i < n; ++i) {
        const double v = q2[i] + sigma_box * x_bar[i];
        const double proj =
            std::clamp(v / sigma_box, box->lower[i], box->upper[i]);
        q2[i] = rho * (v - sigma_box * proj) + keep * q2[i];
      }
    }
    // Primal descent: x̃ = prox_{τ‖Ψᵀ·‖₁}(x − τ·Kᵀq).
    phi.apply_adjoint_into(q1, grad);
    if (box) {
      for (std::size_t i = 0; i < n; ++i) {
        x_new[i] = x[i] - tau * (grad[i] + q2[i]);
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) x_new[i] = x[i] - tau * grad[i];
    }
    {
      psi.apply_adjoint_into(x_new, coeffs);
      for (std::size_t i = 0; i < n; ++i) {
        coeffs[i] = soft_threshold(coeffs[i], tau);
      }
      psi.apply_into(coeffs, x_new);
    }
    // Extrapolation x̄ = x̃ + (x̃ − x), then x ← ρ·x̃ + (1−ρ)·x.
    for (std::size_t i = 0; i < n; ++i) {
      const double x_tilde = x_new[i];
      x_bar[i] = x_tilde + (x_tilde - x[i]);
      x[i] = rho * x_tilde + keep * x[i];
    }
    result.iterations = it;

    if (it % options.check_every == 0 || it == options.max_iterations) {
      obs::trace_instant("solver.pdhg.check", "solver", "iteration",
                         static_cast<std::uint64_t>(it));
      for (std::size_t i = 0; i < n; ++i) {
        check_diff[i] = x_new[i] - x_prev_check[i];
      }
      const double dx = linalg::norm2(check_diff);
      const double rel_change = dx / std::max(linalg::norm2(x_new), 1.0);
      x_prev_check = x_new;

      phi.apply_into(x_new, w_m);
      for (std::size_t i = 0; i < m; ++i) w_m[i] -= y[i];
      const double ball_viol =
          std::max(0.0, linalg::norm2(w_m) - sigma);
      double box_viol = 0.0;
      double box_viol_rel = 0.0;
      if (box) {
        for (std::size_t i = 0; i < n; ++i) {
          const double v =
              std::max(box->lower[i] - x_new[i], x_new[i] - box->upper[i]);
          box_viol = std::max(box_viol, v);
          box_viol_rel = std::max(box_viol_rel, v * inv_width[i]);
        }
      }
      result.ball_violation = ball_viol;
      result.box_violation = box_viol;
      if (ball_viol > options.feasibility_tol * y_scale) {
        result.exit = PdhgExit::kCapBall;
      } else if (box_viol_rel > options.feasibility_tol) {
        result.exit = PdhgExit::kCapBox;
      } else if (rel_change > options.tol) {
        result.exit = PdhgExit::kCapChange;
      } else {
        result.exit = PdhgExit::kConverged;
        result.converged = true;
        break;
      }
    }
  }

  result.objective = linalg::norm1(psi.apply_adjoint(x_new));
  result.x = std::move(x_new);

  static obs::Counter& solves = obs::counter("solver.pdhg.solves");
  static obs::Counter& iterations = obs::counter("solver.pdhg.iterations");
  static obs::Counter& converged = obs::counter("solver.pdhg.converged");
  static obs::Counter& non_converged =
      obs::counter("solver.pdhg.non_converged");
  static obs::Counter* const exits[] = {
      &obs::counter("solver.pdhg.exit.converged"),
      &obs::counter("solver.pdhg.exit.ball"),
      &obs::counter("solver.pdhg.exit.box"),
      &obs::counter("solver.pdhg.exit.x_change"),
  };
  solves.add();
  iterations.add(static_cast<std::uint64_t>(result.iterations));
  (result.converged ? converged : non_converged).add();
  exits[static_cast<std::size_t>(result.exit)]->add();
  solve_scope.set_arg(static_cast<std::uint64_t>(result.iterations));
  return result;
}

}  // namespace csecg::recovery
