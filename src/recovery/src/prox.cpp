#include "csecg/recovery/prox.hpp"

namespace csecg::recovery {

double soft_threshold(double value, double threshold) noexcept {
  if (value > threshold) return value - threshold;
  if (value < -threshold) return value + threshold;
  return 0.0;
}

}  // namespace csecg::recovery
