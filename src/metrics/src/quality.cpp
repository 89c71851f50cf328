#include "csecg/metrics/quality.hpp"

#include <cmath>

#include "csecg/common/check.hpp"
#include "csecg/obs/registry.hpp"

namespace csecg::metrics {

double prd(const linalg::Vector& original,
           const linalg::Vector& reconstructed) {
  CSECG_CHECK(original.size() == reconstructed.size(),
              "prd size mismatch: " << original.size() << " vs "
                                    << reconstructed.size());
  CSECG_CHECK(!original.empty(), "prd: empty signal");
  const double ref = linalg::norm2(original);
  CSECG_CHECK(ref > 0.0, "prd: reference signal has zero norm");
  const linalg::Vector err = original - reconstructed;
  return linalg::norm2(err) / ref * 100.0;
}

double prd_zero_mean(const linalg::Vector& original,
                     const linalg::Vector& reconstructed) {
  CSECG_CHECK(original.size() == reconstructed.size(),
              "prd_zero_mean size mismatch");
  CSECG_CHECK(!original.empty(), "prd_zero_mean: empty signal");
  const double mu = linalg::mean(original);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    const double e = original[i] - reconstructed[i];
    const double r = original[i] - mu;
    num += e * e;
    den += r * r;
  }
  CSECG_CHECK(den > 0.0, "prd_zero_mean: reference signal is constant");
  return std::sqrt(num / den) * 100.0;
}

double snr_from_prd(double prd_percent) {
  CSECG_CHECK(prd_percent >= 0.0 && !std::isnan(prd_percent),
              "snr_from_prd requires PRD >= 0, got " << prd_percent);
  if (prd_percent <= kPrdFloorPercent) {
    // Perfect (or numerically perfect) reconstruction: report the cap
    // instead of aborting the run on a *success*.
    static obs::Counter& floor_hits = obs::counter("metrics.prd_floor_hits");
    floor_hits.add();
    return kSnrCapDb;
  }
  return -20.0 * std::log10(0.01 * prd_percent);
}

double snr(const linalg::Vector& original,
           const linalg::Vector& reconstructed) {
  return snr_from_prd(prd(original, reconstructed));
}

double compression_ratio(std::size_t bits_original,
                         std::size_t bits_compressed) {
  CSECG_CHECK(bits_original > 0, "compression_ratio: zero original size");
  const double orig = static_cast<double>(bits_original);
  const double comp = static_cast<double>(bits_compressed);
  return (orig - comp) / orig * 100.0;
}

double side_channel_overhead(double compressed_fraction, int bits_per_sample,
                             int original_bits) {
  CSECG_CHECK(compressed_fraction >= 0.0,
              "side_channel_overhead: negative fraction");
  CSECG_CHECK(bits_per_sample > 0 && original_bits > 0,
              "side_channel_overhead: bit depths must be positive");
  return compressed_fraction * static_cast<double>(bits_per_sample) /
         static_cast<double>(original_bits) * 100.0;
}

double net_compression_ratio(double cs_cr_percent, double overhead_percent) {
  return cs_cr_percent - overhead_percent;
}

}  // namespace csecg::metrics
