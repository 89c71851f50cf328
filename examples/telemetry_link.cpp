// Telemetry over a lossy radio: one record crossing a 5% burst-loss
// Gilbert–Elliott channel with and without ARQ.
//
// Shows the trade the link layer makes explicit: CS measurements are
// democratic, so fire-and-forget keeps most of the reconstruction quality
// while spending no retransmission energy; ARQ buys the last dB back at a
// measurable per-window energy cost.
//
//   $ ./telemetry_link [record_index] [windows]
//
// Defaults: record 0, 24 windows.
#include <cstdio>
#include <cstdlib>

#include "csecg/link/session.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"

namespace {

/// Writes `text` to `path`; returns false (with a stderr note) on failure.
bool write_file(const char* path, const std::string& text) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csecg;
  const std::size_t record_index =
      argc > 1 ? static_cast<std::size_t>(std::strtol(argv[1], nullptr, 10))
               : 0;
  const std::size_t windows =
      argc > 2 ? static_cast<std::size_t>(std::strtol(argv[2], nullptr, 10))
               : 24;

  ecg::RecordConfig record_config;
  record_config.duration_seconds = 30.0;
  const ecg::SyntheticDatabase database(record_config, 2015);

  core::FrontEndConfig config;
  config.window = 256;
  config.measurements = 48;
  config.wavelet_levels = 4;
  const auto codec = core::train_lowres_codec(config, database, 3, 3);

  // A bursty body-area channel with ~5% stationary packet loss:
  // π_bad = 0.02/0.22 ≈ 0.09, × 0.55 erasure in the bad state ≈ 5%.
  link::LinkSessionConfig base;
  base.channel.kind = link::ChannelKind::kGilbertElliott;
  base.channel.ge_good_to_bad = 0.02;
  base.channel.ge_bad_to_good = 0.20;
  base.channel.ge_erasure_bad = 0.55;

  std::printf("record %zu over a ~%.1f%% burst-loss channel, %zu windows\n\n",
              record_index, base.channel.ge_good_to_bad /
                      (base.channel.ge_good_to_bad +
                       base.channel.ge_bad_to_good) *
                      base.channel.ge_erasure_bad * 100.0,
              windows);
  std::printf("%-16s  %8s  %9s  %7s  %11s  %7s\n", "arq", "snr(dB)",
              "delivery", "retx", "energy(uJ)", "radio%");

  for (const link::ArqMode mode :
       {link::ArqMode::kNone, link::ArqMode::kStopAndWait,
        link::ArqMode::kSelectiveRepeat}) {
    link::LinkSessionConfig link = base;
    link.arq.mode = mode;
    link.arq.max_retries = 4;
    const link::LinkSession session(config, codec, link);

    const link::LinkRecordReport report = link::run_link_record(
        session, database.record(record_index), windows, 0);
    if (report.non_converged_windows > 0) {
      std::printf("# warning: %zu/%zu solves hit the iteration cap\n",
                  report.non_converged_windows, report.solved_windows);
    }

    double radio_j = 0.0;
    double total_j = 0.0;
    for (const double energy_j : report.energy_j) total_j += energy_j;
    // Re-price the radio share for the table.
    for (const link::LinkStats& stats : report.stats) {
      radio_j += static_cast<double>(stats.data_bits) *
                     link.node.radio_nj_per_bit * 1e-9 +
                 static_cast<double>(stats.feedback_bits) *
                     link.node.radio_rx_nj_per_bit * 1e-9;
    }
    const char* name = mode == link::ArqMode::kNone ? "none"
                       : mode == link::ArqMode::kStopAndWait
                           ? "stop-and-wait"
                           : "selective-repeat";
    std::printf("%-16s  %8.2f  %8.1f%%  %7zu  %11.2f  %6.1f%%\n", name,
                report.mean_snr, report.delivery_rate * 100.0,
                report.retransmissions,
                report.mean_energy_j * 1e6,
                radio_j / total_j * 100.0);
  }

  std::printf("\nlossless reference: ");
  link::LinkSessionConfig perfect;
  const link::LinkSession reference(config, codec, perfect);
  const link::LinkRecordReport clean = link::run_link_record(
      reference, database.record(record_index), windows, 0);
  std::printf("%.2f dB at %.2f uJ/window\n", clean.mean_snr,
              clean.mean_energy_j * 1e6);

  // Everything the run recorded — solver convergence, ARQ rounds, stage
  // timings — in one scrape (pipe through `jq` for a pretty view).
  std::printf("\nobs snapshot:\n%s\n", obs::snapshot_json().c_str());

  // With CSECG_TRACE=1 the run also leaves a Perfetto-loadable timeline
  // behind.  The per-window quality ledger is run_report's job.
  if (obs::trace_enabled() && write_file("trace.json", obs::trace_json())) {
    std::printf("wrote trace.json (%zu events — open in ui.perfetto.dev)\n",
                obs::trace_event_count());
  }
  return 0;
}
