#include "csecg/recovery/fista.hpp"

#include <cmath>

#include "csecg/common/check.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"
#include "csecg/recovery/prox.hpp"

namespace csecg::recovery {

void validate(const FistaOptions& options) {
  CSECG_CHECK(options.max_iterations > 0,
              "FistaOptions: max_iterations <= 0");
  CSECG_CHECK(options.tol > 0.0, "FistaOptions: tol must be positive");
  CSECG_CHECK(options.lipschitz_hint >= 0.0,
              "FistaOptions: lipschitz_hint must be non-negative");
}

FistaResult solve_lasso_fista(const linalg::LinearOperator& a,
                              const linalg::Vector& y, double lambda,
                              const FistaOptions& options) {
  static obs::Histogram& solve_hist = obs::histogram("solver.fista.solve_ns");
  obs::TraceScope solve_scope("solver.fista.solve", "solver", &solve_hist,
                              "iterations");
  validate(options);
  CSECG_CHECK(lambda > 0.0, "solve_lasso_fista: lambda must be positive");
  CSECG_CHECK(y.size() == a.rows(), "solve_lasso_fista: y has "
                                        << y.size() << " entries, expected "
                                        << a.rows());
  const std::size_t n = a.cols();
  const double lipschitz =
      options.lipschitz_hint > 0.0
          ? options.lipschitz_hint
          : std::pow(linalg::operator_norm_estimate(a, 60), 2);
  CSECG_CHECK(lipschitz > 0.0, "solve_lasso_fista: zero operator");
  const double step = 1.0 / lipschitz;

  linalg::Vector alpha(n);
  linalg::Vector momentum = alpha;  // The extrapolated point.
  double t = 1.0;

  // Per-solve workspaces so the iteration loop is allocation-free.
  linalg::Vector residual(a.rows());
  linalg::Vector grad(n);
  linalg::Vector alpha_new(n);
  linalg::Vector change(n);

  FistaResult result;
  for (int it = 1; it <= options.max_iterations; ++it) {
    // Gradient of the smooth part at the momentum point.
    a.apply_into(momentum, residual);
    residual -= y;
    a.apply_adjoint_into(residual, grad);
    for (std::size_t i = 0; i < n; ++i) {
      alpha_new[i] =
          soft_threshold(momentum[i] - step * grad[i], step * lambda);
    }
    const double t_new = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
    const double beta = (t - 1.0) / t_new;
    for (std::size_t i = 0; i < n; ++i) {
      momentum[i] = alpha_new[i] + beta * (alpha_new[i] - alpha[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      change[i] = alpha_new[i] - alpha[i];
    }
    const double rel_change = linalg::norm2(change) /
                              std::max(linalg::norm2(alpha_new), 1.0);
    std::swap(alpha, alpha_new);
    t = t_new;
    result.iterations = it;
    if (rel_change <= options.tol) {
      result.converged = true;
      break;
    }
  }

  a.apply_into(alpha, residual);
  residual -= y;
  result.objective = 0.5 * linalg::norm2_squared(residual) +
                     lambda * linalg::norm1(alpha);
  result.coefficients = std::move(alpha);

  static obs::Counter& solves = obs::counter("solver.fista.solves");
  static obs::Counter& iterations = obs::counter("solver.fista.iterations");
  static obs::Counter& converged = obs::counter("solver.fista.converged");
  static obs::Counter& non_converged =
      obs::counter("solver.fista.non_converged");
  solves.add();
  iterations.add(static_cast<std::uint64_t>(result.iterations));
  (result.converged ? converged : non_converged).add();
  solve_scope.set_arg(static_cast<std::uint64_t>(result.iterations));
  return result;
}

}  // namespace csecg::recovery
