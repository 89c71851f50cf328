// Fig. 9 — example original vs hybrid-reconstructed windows at
// δ = m/n ∈ {6%, 12%, 25%}, with the achieved SNR in each title.  Paper
// anchors: δ = 6% → 18.7 dB, δ = 12% → 19.7 dB (raw-PRD convention; both
// conventions are printed here).
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/metrics/quality.hpp"

int main() {
  using namespace csecg;
  bench::print_header("fig9_examples",
                      "Fig. 9 — example reconstructions at delta = m/n of "
                      "6/12/25%",
                      1, 1);

  const auto& database = bench::shared_database();
  core::FrontEndConfig base;
  const auto lowres_codec = core::train_lowres_codec(base, database);
  const linalg::Vector window = database.record(0).window(720, 512);

  for (double delta : {0.06, 0.12, 0.25}) {
    core::FrontEndConfig config = base;
    config.measurements = static_cast<std::size_t>(
        std::lround(delta * static_cast<double>(config.window)));
    const core::Codec codec(config, lowres_codec);
    const auto result = codec.roundtrip(window, core::DecodeMode::kHybrid);
    const double snr_zm =
        metrics::snr_from_prd(metrics::prd_zero_mean(window, result.x));
    const double snr_raw =
        metrics::snr_from_prd(metrics::prd(window, result.x));
    std::printf("delta=%.0f%% (m=%zu) -> SNR %.1f dB zero-mean / %.1f dB "
                "raw\n",
                delta * 100.0, config.measurements, snr_zm, snr_raw);
    // Print a decimated overlay of the original and reconstruction.
    std::printf("sec,original_mv,reconstructed_mv\n");
    const auto& rc = database.record(0).config;
    for (std::size_t i = 0; i < window.size(); i += 8) {
      std::printf("%.4f,%.4f,%.4f\n",
                  static_cast<double>(i) / rc.fs_hz,
                  (window[i] - rc.adc_offset) / rc.adc_gain,
                  (result.x[i] - rc.adc_offset) / rc.adc_gain);
    }
    std::printf("\n");
  }
  std::printf("# paper: delta=6%% -> 18.7 dB, delta=12%% -> 19.7 dB\n");
  return 0;
}
