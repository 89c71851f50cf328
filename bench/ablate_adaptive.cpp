// Ablation — adaptive per-window measurement rate (extension feature).
// Streams windows of quiet and ectopy-heavy records through the adaptive
// codec and a fixed-m codec matched to the adaptive scheme's *average*
// channel count, comparing quality at equal average analog power
// (P ∝ mean m per §VI).
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/core/adaptive.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/metrics/quality.hpp"

int main() {
  using namespace csecg;
  const auto& database = bench::shared_database();
  const std::size_t windows =
      std::max<std::size_t>(bench::windows_budget(), 3);
  const std::vector<const char*> names = {"100", "208", "119", "112"};
  bench::print_header("ablate_adaptive",
                      "adaptive vs fixed measurement rate at equal average "
                      "channel count",
                      names.size(), windows);

  core::FrontEndConfig base;
  const auto lowres_codec = core::train_lowres_codec(base, database);
  core::AdaptiveRateConfig rate;
  rate.m_min = 48;
  rate.m_max = 160;
  rate.low_activity = 0.05;
  rate.high_activity = 0.30;
  const core::AdaptiveCodec adaptive(base, rate, lowres_codec);

  std::printf("record,mean_m_adaptive,adaptive_snr_db,fixed_snr_db\n");
  // "100" is quiet; "208" carries a heavy PVC burden.
  for (const char* name : names) {
    std::size_t index = 0;
    for (std::size_t i = 0; i < database.size(); ++i) {
      if (database.name(i) == name) index = i;
    }
    const auto& record = database.record(index);
    const auto raw_windows =
        ecg::extract_windows(record, base.window, windows);

    double m_sum = 0.0;
    double snr_adaptive = 0.0;
    std::vector<core::Frame> frames;
    for (const auto& window : raw_windows) {
      frames.push_back(adaptive.encode(window));
      m_sum += static_cast<double>(adaptive.last_channels());
    }
    const auto mean_m = static_cast<std::size_t>(
        std::lround(m_sum / static_cast<double>(raw_windows.size())));
    for (std::size_t w = 0; w < raw_windows.size(); ++w) {
      const auto decoded = adaptive.decode(frames[w]);
      snr_adaptive += metrics::snr_from_prd(
          metrics::prd_zero_mean(raw_windows[w], decoded.x));
    }
    snr_adaptive /= static_cast<double>(raw_windows.size());

    core::FrontEndConfig fixed_config = base;
    fixed_config.measurements = mean_m;
    const core::Codec fixed(fixed_config, lowres_codec);
    double snr_fixed = 0.0;
    for (const auto& window : raw_windows) {
      const auto decoded = fixed.roundtrip(window);
      snr_fixed += metrics::snr_from_prd(
          metrics::prd_zero_mean(window, decoded.x));
    }
    snr_fixed /= static_cast<double>(raw_windows.size());

    std::printf("%s,%zu,%.2f,%.2f\n", name, mean_m, snr_adaptive,
                snr_fixed);
  }
  std::printf("# adaptive spends channels where the signal is busy; at "
              "matched average m it should match or beat fixed-rate\n");
  return 0;
}
