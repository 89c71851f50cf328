// Primal-dual (Chambolle–Pock / PDHG) solver for the paper's problem (1).
//
// The paper solves, with SDPT3,
//
//   min ‖α‖₁  s.t.  ‖ΦΨα − y‖₂ ≤ σ,   ẋ ≤ Ψα ≤ ẋ + d            (1)
//
// With an *orthonormal* Ψ this is equivalent, through x = Ψα, to the
// analysis form
//
//   min ‖Ψᵀx‖₁  s.t.  ‖Φx − y‖₂ ≤ σ,   l ≤ x ≤ u
//
// which PDHG handles with only Φ/Φᵀ and Ψ/Ψᵀ products: write it as
// G(x) + F(Kx) with G = ‖Ψᵀ·‖₁ (prox = Ψ∘soft∘Ψᵀ), K = [Φ; I], and
// F(q₁,q₂) = δ_ball(q₁) + δ_box(q₂) (prox of F* by Moreau).  Dropping the
// box block gives the "normal CS" baseline of Fig. 7/8 — the same
// constrained basis-pursuit-denoise the paper's non-hybrid decoder solves.
#pragma once

#include <optional>

#include "csecg/linalg/operator.hpp"
#include "csecg/linalg/vector.hpp"

namespace csecg::recovery {

/// Optional per-sample box constraint l ≤ x ≤ u.
struct BoxConstraint {
  linalg::Vector lower;
  linalg::Vector upper;
};

/// PDHG options.
struct PdhgOptions {
  int max_iterations = 2000;
  /// Relative x-change stopping tolerance.
  double tol = 1e-6;
  /// Allowed constraint violation at exit, relative to ‖y‖ (ball) and,
  /// sample by sample, to that sample's own box width (box).
  double feasibility_tol = 1e-4;
  /// Check convergence every this many iterations.
  int check_every = 10;
  /// Relaxation ρ in (0, 2) (Chambolle & Pock 2016; Condat 2013): after
  /// each dual step and primal prox (q̃, x̃) the state moves to
  /// ρ·(q̃, x̃) + (1−ρ)·(q, x).  The extrapolation stays x̄ = 2x̃ − x, and
  /// the stopping tests and the result use x̃.  The library default 1 is
  /// plain CP, iterate for iterate; FrontEndConfig uses 1.9, which
  /// bench/bench_solver measures to cut iterations by about a third on
  /// ADC-unit ECG windows.
  double relaxation = 1.0;
  /// Safety factor s < 1 on the step sizes: τ·σ·‖K‖² = s² (see
  /// step_sizes for the box case).
  double step_safety = 0.99;
  /// Sets the primal step: τ = s/(‖K‖·√r).  Without a box the dual step is
  /// σ = s·√r/‖K‖; with a box the dual steps follow from τ (see
  /// step_sizes).  The library default 1 balances τ and σ; ADC-unit ECG
  /// windows want a large primal step, so FrontEndConfig uses 4e-4, the
  /// best of the ratios bench/bench_solver sweeps.
  double dual_primal_ratio = 1.0;
  /// Known ‖Φ‖₂, to skip the internal power iteration when the caller
  /// reuses one sensing operator across many solves.  0 = estimate.
  double phi_norm_hint = 0.0;
  /// Optional warm start for the primal variable (empty = default start:
  /// box midpoint when a box is given, zero otherwise).  A measurement-
  /// consistent start such as the least-norm solution Φᵀ(ΦΦᵀ)⁻¹y cuts the
  /// iteration count dramatically for the unconstrained baseline.
  linalg::Vector x0;
};

/// Validates PdhgOptions; throws std::invalid_argument on nonsense.
void validate(const PdhgOptions& options);

/// PDHG step sizes for K = [Φ; I] (box) or K = Φ (no box).
///
/// Without a box: τ = s/(‖Φ‖·√r), σ_ball = s·√r/‖Φ‖, so τ·σ·‖Φ‖² = s².
/// With a box the dual step is block-diagonal (Pock & Chambolle 2011):
/// τ = s/(‖K‖·√r) with ‖K‖ = √(‖Φ‖²+1), then σ_ball = s²/(2τ‖Φ‖²) and
/// σ_box = s²/(2τ), so τ·(σ_ball‖Φ‖² + σ_box) = s² < 1 while the identity
/// block steps ‖Φ‖² times further than the ball block.  (s = step_safety,
/// r = dual_primal_ratio; sigma_box is 0 without a box.)
struct PdhgSteps {
  double tau = 0.0;
  double sigma_ball = 0.0;
  double sigma_box = 0.0;
};

/// Step sizes solve_bpdn uses for a given ‖Φ‖₂ estimate.
PdhgSteps step_sizes(double phi_norm, bool with_box,
                     const PdhgOptions& options);

/// Why solve_bpdn stopped.  At the iteration cap the reason names the
/// first stopping test that still failed at the last check, in the order
/// ball feasibility, box feasibility, x-change.
enum class PdhgExit {
  kConverged,
  kCapBall,
  kCapBox,
  kCapChange,
};

/// Short name of an exit reason ("converged", "ball", "box", "x_change"),
/// as used in the solver.pdhg.exit.<reason> counters.
const char* exit_name(PdhgExit exit) noexcept;

/// Solver outcome.
struct PdhgResult {
  linalg::Vector x;        ///< Recovered sample-domain signal.
  int iterations = 0;
  bool converged = false;  ///< Tolerances met before the iteration cap.
  PdhgExit exit = PdhgExit::kCapChange;  ///< Why the solve stopped
                                         ///< (meaningless if none ran).
  double objective = 0.0;  ///< ‖Ψᵀx‖₁ at exit.
  double ball_violation = 0.0;  ///< max(0, ‖Φx−y‖₂ − σ) at exit.
  double box_violation = 0.0;   ///< max over samples of box violation,
                                ///< in signal units.
};

/// Solves   min ‖Ψᵀx‖₁  s.t. ‖Φx−y‖₂ ≤ σ  [and l ≤ x ≤ u if box given].
///
/// `phi` is the m×n measurement operator, `psi` the n×n orthonormal
/// synthesis operator (apply = Ψ, apply_adjoint = Ψᵀ), `sigma` the fidelity
/// radius (≥ 0).  The box, when present, must have matching dimensions and
/// non-empty cells.  Throws std::invalid_argument on dimension errors.
PdhgResult solve_bpdn(const linalg::LinearOperator& phi,
                      const linalg::LinearOperator& psi,
                      const linalg::Vector& y, double sigma,
                      const std::optional<BoxConstraint>& box = std::nullopt,
                      const PdhgOptions& options = {});

}  // namespace csecg::recovery
