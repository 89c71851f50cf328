// Fig. 7 — averaged SNR (top) and PRD (bottom) over records, as a function
// of CS-channel compression ratio, for Hybrid CS vs normal CS.
//
// The paper's qualitative claims this bench must reproduce:
//  * Hybrid CS outperforms normal CS at every CR;
//  * the advantage explodes at high CR, where normal CS fails to converge;
//  * "good" quality is reached at ~81% CR hybrid vs ~53% normal.
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"

int main() {
  using namespace csecg;
  const auto& database = bench::shared_database();
  const std::size_t records = bench::records_budget();
  const std::size_t windows = bench::windows_budget();
  bench::print_header("fig7_snr_prd_vs_cr",
                      "Fig. 7 — averaged SNR/PRD vs CR, Hybrid vs normal "
                      "CS",
                      records, windows);

  core::FrontEndConfig base;
  const auto lowres_codec = core::train_lowres_codec(base, database);

  std::printf("cr_percent,m,hybrid_snr_db,cs_snr_db,hybrid_prd,cs_prd,"
              "hybrid_net_cr,hybrid_converged,cs_converged\n");
  for (double cr : bench::fig7_cr_grid()) {
    core::FrontEndConfig config = base;
    config.measurements = config.measurements_for_cr(cr);
    const core::Codec codec(config, lowres_codec);
    const auto hybrid = core::run_database(codec, database, records, windows,
                                           core::DecodeMode::kHybrid);
    const auto normal = core::run_database(codec, database, records, windows,
                                           core::DecodeMode::kNormalCs);
    std::printf("%.0f,%zu,%.2f,%.2f,%.2f,%.2f,%.2f,%.3f,%.3f\n", cr,
                config.measurements, core::averaged_snr(hybrid),
                core::averaged_snr(normal), core::averaged_prd(hybrid),
                core::averaged_prd(normal), hybrid.front().net_cr_percent,
                bench::converged_fraction(hybrid),
                bench::converged_fraction(normal));
  }
  std::printf("# paper: hybrid ~22 dB at CR 50 falling to ~14 dB at CR 97; "
              "normal CS collapses above ~CR 70\n");
  return 0;
}
