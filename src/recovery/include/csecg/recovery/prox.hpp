// Proximal operators used by the first-order solvers.
#pragma once

namespace csecg::recovery {

/// Scalar soft-thresholding: sign(v)·max(|v| − threshold, 0), the prox of
/// threshold·|·| that PDHG and FISTA apply coefficient by coefficient.
double soft_threshold(double value, double threshold) noexcept;

}  // namespace csecg::recovery
