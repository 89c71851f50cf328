// §VI headline — the power gains of the hybrid design at fixed
// reconstruction quality.  One sweep decodes every channel count of the
// grid in both modes; for each SNR target the bench then picks the
// smallest m reaching it (per decode mode, averaged over the evaluation
// records) and prices both designs twice: the analog front-end with the
// Eq. 4/5/9 models, and the whole node (analog + radio + digital) per
// window, with the hybrid paying for its side-channel bits on air.
//
// Paper anchors: SNR=20 dB needs m=96 (hybrid) vs 240 (normal) → ~2.5×;
// SNR=17 dB needs m=16 vs 176 → ~11×.
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/power/models.hpp"
#include "csecg/power/node_energy.hpp"

namespace {

using namespace csecg;

/// Mean air bits per window of a hybrid run (CS payload plus side channel).
double mean_air_bits(const std::vector<core::RecordReport>& reports) {
  double bits = 0.0;
  std::size_t count = 0;
  for (const auto& report : reports) {
    for (const auto& w : report.windows) {
      bits += static_cast<double>(w.cs_bits + w.lowres_bits);
      ++count;
    }
  }
  return bits / static_cast<double>(count);
}

}  // namespace

int main() {
  const auto& database = bench::shared_database();
  const std::size_t records = std::min<std::size_t>(bench::records_budget(),
                                                    6);
  const std::size_t windows = bench::windows_budget();
  bench::print_header("headline_power_gain",
                      "§VI — min-m search per SNR target and resulting "
                      "power ratio (paper: 2.5x @20 dB, 11x @17 dB)",
                      records, windows);
  core::FrontEndConfig base;
  const auto codec = core::train_lowres_codec(base, database);
  const auto points =
      bench::sweep(bench::at_measurements(base, bench::headline_m_grid()),
                   codec, records, windows);

  const power::TechnologyParams tech;
  const power::NodeEnergyParams node;
  const double window_seconds = static_cast<double>(base.window) /
                                database.config().fs_hz;
  std::printf("target_snr_db,m_hybrid,snr_hybrid,m_normal,snr_normal,"
              "power_ratio,hybrid_total_uj,normal_total_uj,energy_ratio\n");
  for (double target : {14.0, 15.5, 17.0}) {
    const auto& hybrid =
        bench::min_m(points, target, core::DecodeMode::kHybrid);
    const auto& normal =
        bench::min_m(points, target, core::DecodeMode::kNormalCs);
    const std::size_t m_hybrid = hybrid.config.measurements;
    const std::size_t m_normal = normal.config.measurements;

    power::RmpiDesign normal_design;
    normal_design.channels = m_normal;
    normal_design.window = base.window;
    normal_design.adc_bits = base.measurement_adc_bits;
    power::HybridDesign hybrid_design;
    hybrid_design.cs_path = normal_design;
    hybrid_design.cs_path.channels = m_hybrid;
    hybrid_design.lowres_bits = base.lowres_bits;
    const double ratio = power::rmpi_power(normal_design, tech).total() /
                         power::hybrid_power(hybrid_design, tech).total();

    const auto hybrid_energy = power::window_energy(
        hybrid_design, tech, node,
        static_cast<std::size_t>(mean_air_bits(hybrid.hybrid)),
        window_seconds);
    const auto normal_energy = power::window_energy(
        normal_design, tech, node,
        m_normal * static_cast<std::size_t>(base.measurement_adc_bits),
        window_seconds);
    std::printf("%.1f,%zu,%.2f,%zu,%.2f,%.1f,%.3f,%.3f,%.1f\n", target,
                m_hybrid, core::averaged_snr(hybrid.hybrid), m_normal,
                core::averaged_snr(normal.normal), ratio,
                hybrid_energy.total() * 1e6, normal_energy.total() * 1e6,
                normal_energy.total() / hybrid_energy.total());
  }
  std::printf("# power ratio tracks m_normal/m_hybrid because every analog "
              "block scales linearly in m (§VI); the analog block dominates "
              "the node budget too, so energy_ratio tracks it\n");
  return 0;
}
