// System-level energy trade-off: total node energy (analog + radio +
// digital) per window as a function of the operating point, for the
// hybrid front-end and the normal-CS front-end sized to deliver the same
// reconstruction SNR.  The paper's 11× claim is analog-only; with the
// radio included the hybrid's smaller m *and* competitive net CR both
// show up in the node budget.
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/power/node_energy.hpp"

int main() {
  using namespace csecg;
  const auto& database = bench::shared_database();
  const std::size_t records =
      std::min<std::size_t>(bench::records_budget(), 6);
  const std::size_t windows = bench::windows_budget();
  bench::print_header("node_energy_tradeoff",
                      "whole-node energy per window, hybrid vs normal CS "
                      "at matched SNR",
                      records, windows);

  power::TechnologyParams tech;
  power::NodeEnergyParams node;
  const double window_seconds = 512.0 / 360.0;  // n / fs.

  // Matched-quality pairs from the headline search (hybrid m / normal m).
  struct Pair {
    std::size_t m_hybrid;
    std::size_t m_normal;
  };
  std::printf("m_hybrid,m_normal,hybrid_snr,normal_snr,hybrid_total_uj,"
              "normal_total_uj,energy_ratio\n");
  for (const Pair pair : {Pair{16, 240}, Pair{64, 288}, Pair{96, 352}}) {
    core::FrontEndConfig hybrid_config;
    hybrid_config.measurements = pair.m_hybrid;
    const auto lowres_codec =
        core::train_lowres_codec(hybrid_config, database);
    const core::Codec hybrid_codec(hybrid_config, lowres_codec);
    const auto hybrid_reports =
        core::run_database(hybrid_codec, database, records, windows,
                           core::DecodeMode::kHybrid);

    core::FrontEndConfig normal_config;
    normal_config.measurements = pair.m_normal;
    const core::Codec normal_codec(normal_config, lowres_codec);
    const auto normal_reports =
        core::run_database(normal_codec, database, records, windows,
                           core::DecodeMode::kNormalCs);

    // Air bits per window, averaged (hybrid pays the side channel).
    double hybrid_bits = 0.0;
    std::size_t count = 0;
    for (const auto& report : hybrid_reports) {
      for (const auto& w : report.windows) {
        hybrid_bits += static_cast<double>(w.cs_bits + w.lowres_bits);
        ++count;
      }
    }
    hybrid_bits /= static_cast<double>(count);
    const double normal_bits =
        static_cast<double>(pair.m_normal) * 12.0;

    power::HybridDesign hybrid_design;
    hybrid_design.cs_path.channels = pair.m_hybrid;
    hybrid_design.cs_path.window = 512;
    const auto hybrid_energy = power::window_energy(
        hybrid_design, tech, node,
        static_cast<std::size_t>(hybrid_bits), window_seconds);

    power::RmpiDesign normal_design;
    normal_design.channels = pair.m_normal;
    normal_design.window = 512;
    const auto normal_energy = power::window_energy(
        normal_design, tech, node,
        static_cast<std::size_t>(normal_bits), window_seconds);

    std::printf("%zu,%zu,%.2f,%.2f,%.3f,%.3f,%.1f\n", pair.m_hybrid,
                pair.m_normal, core::averaged_snr(hybrid_reports),
                core::averaged_snr(normal_reports),
                hybrid_energy.total() * 1e6, normal_energy.total() * 1e6,
                normal_energy.total() / hybrid_energy.total());
  }
  std::printf("# the analog block dominates at these design constants, so "
              "the node-level ratio tracks the paper's analog-only claim\n");
  return 0;
}
