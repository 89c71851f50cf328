// Fig. 8 — box plots of per-record SNR across the database, per CR, for
// normal (top) and Hybrid (bottom) CS reconstruction.  Prints the five
// box-plot numbers (whiskers at 1.5·IQR, MATLAB convention) plus outlier
// counts for each CR and method.
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/metrics/stats.hpp"

namespace {

void print_boxes(const char* method, csecg::core::DecodeMode mode,
                 const csecg::core::FrontEndConfig& base,
                 const csecg::coding::DeltaHuffmanCodec& lowres_codec) {
  using namespace csecg;
  const auto& database = bench::shared_database();
  const std::size_t records = bench::records_budget();
  const std::size_t windows = bench::windows_budget();

  std::printf("%s\n", method);
  std::printf("cr_percent,whisker_low,q1,median,q3,whisker_high,outliers\n");
  for (double cr : bench::fig7_cr_grid()) {
    core::FrontEndConfig config = base;
    config.measurements = config.measurements_for_cr(cr);
    const core::Codec codec(config, lowres_codec);
    const auto reports =
        core::run_database(codec, database, records, windows, mode);
    const auto box = metrics::box_stats(core::per_record_snr(reports));
    std::printf("%.0f,%.2f,%.2f,%.2f,%.2f,%.2f,%zu\n", cr, box.whisker_low,
                box.q1, box.median, box.q3, box.whisker_high,
                box.outliers.size());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace csecg;
  bench::print_header("fig8_boxplots",
                      "Fig. 8 — per-record SNR box plots vs CR, normal "
                      "(top) and Hybrid (bottom)",
                      bench::records_budget(), bench::windows_budget());
  core::FrontEndConfig base;
  const auto lowres_codec =
      core::train_lowres_codec(base, bench::shared_database());
  print_boxes("normal CS (paper top panel)", core::DecodeMode::kNormalCs,
              base, lowres_codec);
  print_boxes("Hybrid CS (paper bottom panel)", core::DecodeMode::kHybrid,
              base, lowres_codec);
  std::printf("# paper: hybrid boxes sit in 14-24 dB with small spread; "
              "normal boxes fall toward 0 at high CR\n");
  return 0;
}
