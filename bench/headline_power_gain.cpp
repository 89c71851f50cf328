// §VI headline — the power gains of the hybrid design at fixed
// reconstruction quality.  For each SNR target the bench searches the
// smallest channel count m reaching it (per decode mode, averaged over the
// evaluation records), then prices both designs with the Eq. 4/5/9 models.
//
// Paper anchors: SNR=20 dB needs m=96 (hybrid) vs 240 (normal) → ~2.5×;
// SNR=17 dB needs m=16 vs 176 → ~11×.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/power/models.hpp"

namespace {

using namespace csecg;

double snr_at(const core::FrontEndConfig& base, std::size_t m,
              const coding::DeltaHuffmanCodec& codec, std::size_t records,
              std::size_t windows, core::DecodeMode mode) {
  core::FrontEndConfig config = base;
  config.measurements = m;
  const core::Codec front_end(config, codec);
  const auto reports = core::run_database(front_end, bench::shared_database(),
                                          records, windows, mode);
  return core::averaged_snr(reports);
}

std::size_t min_m(const core::FrontEndConfig& base, double target,
                  const coding::DeltaHuffmanCodec& codec,
                  std::size_t records, std::size_t windows,
                  core::DecodeMode mode, double* achieved) {
  static const std::vector<std::size_t> grid = {
      16, 24, 32, 48, 64, 96, 128, 160, 192, 240, 288, 352, 448, 512};
  for (std::size_t m : grid) {
    const double snr = snr_at(base, m, codec, records, windows, mode);
    if (snr >= target) {
      *achieved = snr;
      return m;
    }
  }
  *achieved = snr_at(base, 512, codec, records, windows, mode);
  return 512;
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

  std::printf("target_snr_db,m_hybrid,snr_hybrid,m_normal,snr_normal,"
              "power_ratio\n");
  for (double target : {14.0, 15.5, 17.0}) {
    double snr_h = 0.0;
    double snr_n = 0.0;
    const std::size_t m_hybrid =
        min_m(base, target, codec, records, windows,
              core::DecodeMode::kHybrid, &snr_h);
    const std::size_t m_normal =
        min_m(base, target, codec, records, windows,
              core::DecodeMode::kNormalCs, &snr_n);

    power::TechnologyParams tech;
    power::RmpiDesign normal_design;
    normal_design.channels = m_normal;
    normal_design.window = base.window;
    power::HybridDesign hybrid_design;
    hybrid_design.cs_path = normal_design;
    hybrid_design.cs_path.channels = m_hybrid;
    hybrid_design.lowres_bits = base.lowres_bits;
    const double ratio = power::rmpi_power(normal_design, tech).total() /
                         power::hybrid_power(hybrid_design, tech).total();
    std::printf("%.1f,%zu,%.2f,%zu,%.2f,%.1f\n", target, m_hybrid, snr_h,
                m_normal, snr_n, ratio);
  }
  std::printf("# power ratio tracks m_normal/m_hybrid because every analog "
              "block scales linearly in m (§VI)\n");
  return 0;
}
