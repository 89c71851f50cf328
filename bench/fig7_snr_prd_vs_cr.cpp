// Fig. 7 — averaged SNR (top) and PRD (bottom) over records, as a function
// of CS-channel compression ratio, for Hybrid CS vs normal CS; then Fig. 8
// — box plots of per-record SNR across the database, per CR, for normal
// (top) and Hybrid (bottom) CS, from the same decodes.  Each box prints the
// five box-plot numbers (whiskers at 1.5·IQR, MATLAB convention) plus its
// outlier count.
//
// The paper's qualitative claims this bench must reproduce:
//  * Hybrid CS outperforms normal CS at every CR;
//  * the advantage explodes at high CR, where normal CS fails to converge;
//  * "good" quality is reached at ~81% CR hybrid vs ~53% normal.
#include <cstdio>
#include <utility>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/metrics/stats.hpp"

int main() {
  using namespace csecg;
  const auto& database = bench::shared_database();
  const std::size_t records = bench::records_budget();
  const std::size_t windows = bench::windows_budget();
  bench::print_header("fig7_snr_prd_vs_cr",
                      "Fig. 7 — averaged SNR/PRD vs CR, Hybrid vs normal "
                      "CS; Fig. 8 — per-record SNR box plots vs CR",
                      records, windows);

  core::FrontEndConfig base;
  const auto lowres_codec = core::train_lowres_codec(base, database);
  std::vector<std::size_t> ms;
  for (double cr : bench::fig7_cr_grid()) {
    ms.push_back(base.measurements_for_cr(cr));
  }
  const auto points = bench::sweep(bench::at_measurements(base, ms),
                                   lowres_codec, records, windows);

  std::printf("cr_percent,m,hybrid_snr_db,cs_snr_db,hybrid_prd,cs_prd,"
              "hybrid_net_cr,hybrid_converged,cs_converged\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& [config, hybrid, normal] = points[i];
    std::printf("%.0f,%zu,%.2f,%.2f,%.2f,%.2f,%.2f,%.3f,%.3f\n",
                bench::fig7_cr_grid()[i], config.measurements,
                core::averaged_snr(hybrid), core::averaged_snr(normal),
                core::averaged_prd(hybrid), core::averaged_prd(normal),
                hybrid.front().net_cr_percent,
                bench::converged_fraction(hybrid),
                bench::converged_fraction(normal));
  }
  std::printf("# paper: hybrid ~22 dB at CR 50 falling to ~14 dB at CR 97; "
              "normal CS collapses above ~CR 70\n\n");

  for (const auto& [method, mode] :
       {std::pair{"normal CS (paper top panel)", core::DecodeMode::kNormalCs},
        std::pair{"Hybrid CS (paper bottom panel)",
                  core::DecodeMode::kHybrid}}) {
    std::printf("%s\ncr_percent,whisker_low,q1,median,q3,whisker_high,"
                "outliers\n",
                method);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto box =
          metrics::box_stats(core::per_record_snr(points[i].reports(mode)));
      std::printf("%.0f,%.2f,%.2f,%.2f,%.2f,%.2f,%zu\n",
                  bench::fig7_cr_grid()[i], box.whisker_low, box.q1,
                  box.median, box.q3, box.whisker_high, box.outliers.size());
    }
    std::printf("\n");
  }
  std::printf("# paper: hybrid boxes sit in 14-24 dB with small spread; "
              "normal boxes fall toward 0 at high CR\n");
  return 0;
}
