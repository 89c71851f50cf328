// Fig. 2 — one fixed-size window seen by the low-resolution path: the
// original ECG, the 7-bit staircase, and the reconstruction bound area.
// Emits the plot series as CSV rows (time, original, low-res lower bound,
// upper bound) plus containment diagnostics.
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/sensing/lowres_channel.hpp"

int main() {
  using namespace csecg;
  bench::print_header("fig2_lowres_window",
                      "Fig. 2 — example 7-bit low-resolution window and "
                      "bound area",
                      1, 1);

  const auto& database = bench::shared_database();
  const ecg::EcgRecord& record = database.record(0);
  const std::size_t n = 360;  // One second at 360 Hz, as plotted.
  const linalg::Vector window = record.window(720, n);

  sensing::LowResConfig config;
  config.bits = 7;
  const sensing::LowResChannel channel(config);
  const sensing::LowResOutput out = channel.sample(window);

  std::printf("step d = %.0f ADC units (7-bit over 11-bit range)\n",
              out.step);
  std::printf("sec,original,lowres_lower,lowres_upper\n");
  std::size_t contained = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (out.lower[i] <= window[i] && window[i] <= out.upper[i]) ++contained;
    if (i % 4 == 0) {  // Decimate the printout; shape is unaffected.
      std::printf("%.4f,%.0f,%.0f,%.0f\n",
                  static_cast<double>(i) / record.config.fs_hz, window[i],
                  out.lower[i], out.upper[i]);
    }
  }
  std::printf("# bound containment: %zu/%zu samples inside [lower, upper]\n",
              contained, n);
  return 0;
}
