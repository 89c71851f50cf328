#include "csecg/dsp/dct.hpp"

#include <cmath>
#include <numbers>

#include "csecg/common/check.hpp"

namespace csecg::dsp {

Dct::Dct(std::size_t n) : n_(n) {
  CSECG_CHECK(n >= 1, "Dct: length must be >= 1");
  table_.resize(n * n);
  const double norm0 = std::sqrt(1.0 / static_cast<double>(n));
  const double norm = std::sqrt(2.0 / static_cast<double>(n));
  for (std::size_t k = 0; k < n; ++k) {
    const double scale = k == 0 ? norm0 : norm;
    for (std::size_t i = 0; i < n; ++i) {
      table_[k * n + i] =
          scale * std::cos(std::numbers::pi *
                           (2.0 * static_cast<double>(i) + 1.0) *
                           static_cast<double>(k) /
                           (2.0 * static_cast<double>(n)));
    }
  }
}

linalg::Vector Dct::forward(const linalg::Vector& x) const {
  CSECG_CHECK(x.size() == n_, "Dct::forward expected length "
                                  << n_ << ", got " << x.size());
  linalg::Vector coeffs(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const double* row = table_.data() + k * n_;
    double acc = 0.0;
    for (std::size_t i = 0; i < n_; ++i) acc += row[i] * x[i];
    coeffs[k] = acc;
  }
  return coeffs;
}

linalg::Vector Dct::inverse(const linalg::Vector& coeffs) const {
  CSECG_CHECK(coeffs.size() == n_, "Dct::inverse expected length "
                                       << n_ << ", got " << coeffs.size());
  linalg::Vector x(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const double ck = coeffs[k];
    if (ck == 0.0) continue;
    const double* row = table_.data() + k * n_;
    for (std::size_t i = 0; i < n_; ++i) x[i] += ck * row[i];
  }
  return x;
}

linalg::LinearOperator Dct::synthesis_operator() const {
  const Dct self = *this;
  return linalg::LinearOperator(
      n_, n_,
      [self](const linalg::Vector& coeffs, linalg::Vector& x) {
        x = self.inverse(coeffs);
      },
      [self](const linalg::Vector& x, linalg::Vector& coeffs) {
        coeffs = self.forward(x);
      });
}

}  // namespace csecg::dsp
