#include "csecg/sensing/rmpi.hpp"

#include <array>
#include <cmath>

#include "csecg/common/check.hpp"
#include "csecg/obs/registry.hpp"

namespace csecg::sensing {

void validate(const RmpiConfig& config) {
  CSECG_CHECK(config.channels > 0 && config.window > 0,
              "RmpiConfig: dimensions must be positive");
  CSECG_CHECK(config.channels <= config.window,
              "RmpiConfig: more channels (" << config.channels
                                            << ") than chips ("
                                            << config.window << ")");
  CSECG_CHECK(config.integrator_leakage >= 0.0 &&
                  config.integrator_leakage < 1.0,
              "RmpiConfig: leakage must be in [0, 1), got "
                  << config.integrator_leakage);
  CSECG_CHECK(config.adc_bits >= 0 && config.adc_bits <= 24,
              "RmpiConfig: adc_bits out of range: " << config.adc_bits);
  CSECG_CHECK(config.adc_range >= 0.0, "RmpiConfig: negative adc_range");
  CSECG_CHECK(config.input_full_scale > 0.0,
              "RmpiConfig: input_full_scale must be positive");
}

namespace {

double resolve_adc_range(const RmpiConfig& config) {
  if (config.adc_range > 0.0) return config.adc_range;
  // Design-time range: ±(input full scale · √n) covers the integrator
  // output at > 4σ for zero-mean chip sums while wasting at most ~2 bits.
  return config.input_full_scale *
         std::sqrt(static_cast<double>(config.window));
}

}  // namespace

RmpiSimulator::RmpiSimulator(RmpiConfig config)
    : config_(config),
      chips_(chipping_sequences(config.channels, config.window,
                                config.chip_seed)) {
  validate(config_);
  if (config_.adc_bits > 0) {
    const double range = resolve_adc_range(config_);
    adc_.emplace(config_.adc_bits, -range, range, QuantizerMode::kRound);
  }
}

linalg::Matrix RmpiSimulator::effective_matrix() const {
  linalg::Matrix phi = chips_;
  const double lambda = config_.integrator_leakage;
  if (lambda > 0.0) {
    const std::size_t n = config_.window;
    for (std::size_t k = 0; k < n; ++k) {
      const double weight =
          std::pow(1.0 - lambda, static_cast<double>(n - 1 - k));
      for (std::size_t c = 0; c < config_.channels; ++c) {
        phi(c, k) *= weight;
      }
    }
  }
  return phi;
}

linalg::LinearOperator RmpiSimulator::effective_operator() const {
  return linalg::LinearOperator::from_matrix(effective_matrix());
}

namespace {

// Integrates channels [first, first + W) side by side.  Each channel runs
// the same acc·keep + chip·x chain, in the same order, as it would alone;
// interleaving W independent chains only hides the add latency.
template <std::size_t W>
void integrate(const linalg::Matrix& chips, std::size_t first,
               const linalg::Vector& x, double keep, double* out) {
  std::array<const double*, W> rows;
  for (std::size_t j = 0; j < W; ++j) rows[j] = chips.row(first + j);
  std::array<double, W> acc{};
  for (std::size_t k = 0; k < x.size(); ++k) {
    const double xk = x[k];
    for (std::size_t j = 0; j < W; ++j) {
      acc[j] = acc[j] * keep + rows[j][k] * xk;
    }
  }
  for (std::size_t j = 0; j < W; ++j) out[j] = acc[j];
}

}  // namespace

linalg::Vector RmpiSimulator::measure_unquantized(
    const linalg::Vector& x) const {
  CSECG_CHECK(x.size() == config_.window,
              "RmpiSimulator::measure expected window of "
                  << config_.window << ", got " << x.size());
  const double keep = 1.0 - config_.integrator_leakage;
  constexpr std::size_t kLanes = 8;
  const std::size_t m = config_.channels;
  linalg::Vector y(m);
  std::size_t c = 0;
  for (; c + kLanes <= m; c += kLanes) {
    integrate<kLanes>(chips_, c, x, keep, y.data() + c);
  }
  for (; c < m; ++c) integrate<1>(chips_, c, x, keep, y.data() + c);
  for (c = 0; c < m; ++c) {
    if (std::isfinite(y[c])) continue;
    // A NaN integrator output means a NaN input sample — fail with the
    // (lowest) channel index instead of letting the ADC see it.  ±inf
    // (saturated accumulation) is counted and left for the ADC to clamp.
    CSECG_CHECK(!std::isnan(y[c]),
                "RmpiSimulator::measure: NaN integrator output on channel "
                    << c);
    static obs::Counter& nonfinite =
        obs::counter("rmpi.nonfinite_integrator_outputs");
    nonfinite.add();
  }
  return y;
}

linalg::Vector RmpiSimulator::measure(const linalg::Vector& x) const {
  linalg::Vector y = measure_unquantized(x);
  if (adc_) {
    for (auto& v : y) v = adc_->reconstruct(adc_->code(v));
  }
  return y;
}

double RmpiSimulator::expected_quantization_noise_norm() const noexcept {
  if (!adc_) return 0.0;
  const double per_channel = adc_->step() / std::sqrt(12.0);
  return per_channel * std::sqrt(static_cast<double>(config_.channels));
}

}  // namespace csecg::sensing
