// Ablation — noise stress (the MIT-BIH NST methodology applied to the
// front-end).  Regenerates one record profile with increasing EMG noise
// and measures reconstruction quality for both decoders at m = 96.
// In-band broadband noise is incompressible, so it bounds what any
// CS decoder can do; the hybrid's box tracks the *noisy* signal and keeps
// degrading gracefully.
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"

int main() {
  using namespace csecg;
  const std::size_t windows =
      std::max<std::size_t>(bench::windows_budget(), 2);
  const std::vector<double> emg_levels_mv = {0.0,  0.01, 0.02,
                                             0.05, 0.1,  0.2};
  bench::print_header("ablate_noise_stress",
                      "noise stress — EMG level vs reconstruction SNR at "
                      "m=96",
                      emg_levels_mv.size(), windows);

  core::FrontEndConfig config;
  config.measurements = 96;
  const auto lowres_codec =
      core::train_lowres_codec(config, bench::shared_database());
  const core::Codec codec(config, lowres_codec);

  ecg::RecordConfig record_config;
  record_config.duration_seconds = 30.0;

  std::printf("emg_mv,hybrid_snr_db,cs_snr_db\n");
  for (const double emg_mv : emg_levels_mv) {
    ecg::RecordProfile profile = ecg::mitbih_surrogate_profiles()[0];
    profile.noise.emg_mv = emg_mv;
    const ecg::EcgRecord record =
        ecg::generate_record(profile, record_config, 2015);
    const auto hybrid =
        core::run_record(codec, record, windows, core::DecodeMode::kHybrid);
    const auto normal =
        core::run_record(codec, record, windows,
                         core::DecodeMode::kNormalCs);
    std::printf("%.2f,%.2f,%.2f\n", emg_mv, hybrid.mean_snr,
                normal.mean_snr);
  }
  std::printf("# expectation: both decoders approach the in-band noise "
              "ceiling; the hybrid stays above normal CS throughout\n");
  return 0;
}
