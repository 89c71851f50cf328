// Fig. 11 — power-consumption breakdown (P_adc, P_int, P_amp, P_total) vs
// sampling frequency, swept 100 Hz .. 100 MHz, for (a) the RMPI design at
// m = 240 and (b) the Hybrid CS design at m = 96 + low-res ADC — the
// paper's SNR = 20 dB operating points.
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/power/models.hpp"

namespace {

void sweep(const char* title, std::size_t channels, int lowres_bits) {
  using namespace csecg;
  power::TechnologyParams tech;
  power::RmpiDesign design;
  design.channels = channels;
  design.window = 512;

  std::printf("%s (m=%zu)\n", title, channels);
  std::printf("fs_mhz,p_adc_uw,p_int_uw,p_amp_uw,p_lowres_uw,p_total_uw\n");
  for (const auto& point :
       power::frequency_sweep(design, tech, 100.0, 1e8, 25)) {
    double lowres = 0.0;
    if (lowres_bits > 0) {
      lowres = power::lowres_adc_power(lowres_bits, point.nyquist_hz, tech);
    }
    std::printf("%.6g,%.6g,%.6g,%.6g,%.6g,%.6g\n", point.nyquist_hz / 1e6,
                point.breakdown.adc * 1e6, point.breakdown.integrator * 1e6,
                point.breakdown.amplifier * 1e6, lowres * 1e6,
                (point.breakdown.total() + lowres) * 1e6);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace csecg;
  bench::print_header("fig11_power_breakdown",
                      "Fig. 11 — power breakdown vs sampling frequency, "
                      "RMPI (m=240) and Hybrid (m=96)",
                      0, 0);
  sweep("(a) RMPI", 240, 0);
  sweep("(b) Hybrid CS", 96, 7);

  // The paper's comparison at the ECG operating point.
  power::TechnologyParams tech;
  power::RmpiDesign normal;
  normal.channels = 240;
  power::HybridDesign hybrid;
  hybrid.cs_path = normal;
  hybrid.cs_path.channels = 96;
  const double ratio = power::rmpi_power(normal, tech).total() /
                       power::hybrid_power(hybrid, tech).total();
  std::printf("# total power ratio RMPI(m=240)/Hybrid(m=96) = %.2fx "
              "(paper: ~2.5x); amplifier dominates both\n",
              ratio);
  return 0;
}
