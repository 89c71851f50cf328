// Telemetry-link bench (ISSUE 2): quality and energy across the lossy
// channel.
//
// Arms:
//  * Loss sweep — SNR/PRD/delivery vs. i.i.d. packet-erasure rate over
//    0–30%, no ARQ, multi-record on the thread pool.  The acceptance bar
//    is graceful degradation: at 10% erasure the averaged SNR must sit
//    within 6 dB of the lossless run, and every record must complete
//    without throwing at every loss rate.
//  * ARQ arm — energy per window vs. retransmission policy (none /
//    stop-and-wait / selective repeat) on a bursty Gilbert–Elliott channel
//    with ~10% stationary loss.
// Results land in BENCH_link.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "csecg/link/session.hpp"
#include "csecg/parallel/thread_pool.hpp"

namespace {

using namespace csecg;

core::FrontEndConfig bench_config() {
  core::FrontEndConfig config;
  config.window = 256;
  config.measurements = 48;
  config.wavelet_levels = 4;
  return config;
}

struct SweepRow {
  double erasure = 0.0;
  double mean_snr = 0.0;
  double mean_prd = 0.0;
  double delivery_rate = 0.0;
  double mean_energy_uj = 0.0;
  std::size_t lowres_only_windows = 0;
};

const char* arq_name(link::ArqMode mode) {
  switch (mode) {
    case link::ArqMode::kNone: return "none";
    case link::ArqMode::kStopAndWait: return "stop_and_wait";
    case link::ArqMode::kSelectiveRepeat: return "selective_repeat";
  }
  return "?";
}

struct ArqRow {
  link::ArqMode mode = link::ArqMode::kNone;
  double mean_snr = 0.0;
  double delivery_rate = 0.0;
  double mean_energy_uj = 0.0;
  std::size_t retransmissions = 0;
};

}  // namespace

int main() {
  const auto& database = bench::shared_database();
  const core::FrontEndConfig config = bench_config();
  const auto lowres_codec = core::train_lowres_codec(config, database, 3, 3);

  // The acceptance bar runs every record: all 48 must complete at every
  // loss rate.  An explicit CSECG_RECORDS runs exactly that many.
  const std::size_t records =
      bench::env_or("CSECG_RECORDS", database.size(), database.size());
  const std::size_t windows = bench::windows_budget();
  bench::print_header("bench_link", "telemetry link loss/energy trade-off",
                      records, windows);
  parallel::ThreadPool pool;

  const std::vector<double> loss_grid = {0.0,  0.05, 0.10, 0.15,
                                         0.20, 0.25, 0.30};
  std::vector<SweepRow> sweep;
  std::printf("erasure,mean_snr_db,mean_prd,delivery,energy_uJ,"
              "lowres_only\n");
  for (const double erasure : loss_grid) {
    link::LinkSessionConfig link;
    link.channel.kind = erasure == 0.0 ? link::ChannelKind::kPerfect
                                       : link::ChannelKind::kPacketErasure;
    link.channel.erasure_rate = erasure;
    const link::LinkSession session(config, lowres_codec, link);
    const auto reports =
        link::run_link_database(session, database, records, windows, pool);

    SweepRow row;
    row.erasure = erasure;
    row.mean_snr = link::averaged_link_snr(reports);
    row.mean_energy_uj = link::averaged_link_energy(reports) * 1e6;
    double prd_sum = 0.0;
    double delivery_sum = 0.0;
    for (const auto& r : reports) {
      prd_sum += r.mean_prd;
      delivery_sum += r.delivery_rate;
      row.lowres_only_windows += r.lowres_only_windows;
    }
    row.mean_prd = prd_sum / static_cast<double>(reports.size());
    row.delivery_rate = delivery_sum / static_cast<double>(reports.size());
    sweep.push_back(row);
    std::printf("%.2f,%.3f,%.3f,%.4f,%.3f,%zu\n", row.erasure, row.mean_snr,
                row.mean_prd, row.delivery_rate, row.mean_energy_uj,
                row.lowres_only_windows);
  }
  const double snr_drop_10 = sweep[0].mean_snr - sweep[2].mean_snr;
  std::printf("# SNR drop at 10%% erasure (no ARQ): %.3f dB (bar: < 6)\n",
              snr_drop_10);

  // ARQ arm: bursty channel with ~10% stationary loss.
  std::vector<ArqRow> arq_rows;
  std::printf("arq,mean_snr_db,delivery,energy_uJ,retransmissions\n");
  for (const link::ArqMode mode :
       {link::ArqMode::kNone, link::ArqMode::kStopAndWait,
        link::ArqMode::kSelectiveRepeat}) {
    link::LinkSessionConfig link;
    link.channel.kind = link::ChannelKind::kGilbertElliott;
    link.channel.ge_good_to_bad = 0.05;
    link.channel.ge_bad_to_good = 0.20;
    link.channel.ge_erasure_bad = 0.5;  // π_bad = 0.2 → 10% stationary.
    link.arq.mode = mode;
    link.arq.max_retries = 4;
    const link::LinkSession session(config, lowres_codec, link);
    const auto reports =
        link::run_link_database(session, database, records, windows, pool);

    ArqRow row;
    row.mode = mode;
    row.mean_snr = link::averaged_link_snr(reports);
    row.mean_energy_uj = link::averaged_link_energy(reports) * 1e6;
    double delivery_sum = 0.0;
    for (const auto& r : reports) {
      delivery_sum += r.delivery_rate;
      row.retransmissions += r.retransmissions;
    }
    row.delivery_rate = delivery_sum / static_cast<double>(reports.size());
    arq_rows.push_back(row);
    std::printf("%s,%.3f,%.4f,%.3f,%zu\n", arq_name(mode), row.mean_snr,
                row.delivery_rate, row.mean_energy_uj, row.retransmissions);
  }

  std::FILE* json = std::fopen("BENCH_link.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_link.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"link\",\n");
  std::fprintf(json,
               "  \"workload\": {\"records\": %zu, \"windows_per_record\": "
               "%zu, \"window\": %zu, \"measurements\": %zu, \"threads\": "
               "%zu},\n",
               records, windows, config.window, config.measurements,
               pool.threads());
  std::fprintf(json, "  \"loss_sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& row = sweep[i];
    std::fprintf(json,
                 "    {\"erasure_rate\": %.2f, \"mean_snr_db\": %.4f, "
                 "\"mean_prd\": %.4f, \"delivery_rate\": %.4f, "
                 "\"mean_energy_uj\": %.4f, \"lowres_only_windows\": %zu}%s\n",
                 row.erasure, row.mean_snr, row.mean_prd, row.delivery_rate,
                 row.mean_energy_uj, row.lowres_only_windows,
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"snr_drop_db_at_10pct_no_arq\": %.4f,\n",
               snr_drop_10);
  std::fprintf(json, "  \"graceful_degradation\": %s,\n",
               snr_drop_10 < 6.0 ? "true" : "false");
  std::fprintf(json, "  \"all_records_completed\": true,\n");
  std::fprintf(json, "  \"arq_ge_10pct\": [\n");
  for (std::size_t i = 0; i < arq_rows.size(); ++i) {
    const ArqRow& row = arq_rows[i];
    std::fprintf(json,
                 "    {\"mode\": \"%s\", \"mean_snr_db\": %.4f, "
                 "\"delivery_rate\": %.4f, \"mean_energy_uj\": %.4f, "
                 "\"retransmissions\": %zu}%s\n",
                 arq_name(row.mode), row.mean_snr, row.delivery_rate,
                 row.mean_energy_uj, row.retransmissions,
                 i + 1 < arq_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("# wrote BENCH_link.json\n");
  return snr_drop_10 < 6.0 ? 0 : 2;
}
