// Ablation — sparsifying dictionary choice (DESIGN.md §5.2).  Sweeps the
// wavelet family at the paper's m = 96 operating point and reports hybrid
// and normal-CS SNR.  The authors' earlier work picked Daubechies wavelets
// for ECG; this quantifies how much the family matters once the hybrid box
// is in play.
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"

int main() {
  using namespace csecg;
  const auto& database = bench::shared_database();
  const std::size_t records = std::min<std::size_t>(bench::records_budget(),
                                                    6);
  const std::size_t windows = bench::windows_budget();
  bench::print_header("ablate_wavelet",
                      "design ablation — wavelet family at m=96", records,
                      windows);
  core::FrontEndConfig base;
  const auto lowres_codec = core::train_lowres_codec(base, database);

  std::vector<core::FrontEndConfig> configs;
  for (dsp::WaveletFamily family :
       {dsp::WaveletFamily::kHaar, dsp::WaveletFamily::kDb2,
        dsp::WaveletFamily::kDb4, dsp::WaveletFamily::kDb8,
        dsp::WaveletFamily::kSym4, dsp::WaveletFamily::kSym8,
        dsp::WaveletFamily::kCoif2}) {
    configs.push_back(base);
    configs.back().wavelet = family;
  }
  const auto points = bench::sweep(configs, lowres_codec, records, windows);

  std::printf("wavelet,hybrid_snr_db,cs_snr_db\n");
  for (const auto& [config, hybrid, normal] : points) {
    std::printf("%s,%.2f,%.2f\n", dsp::wavelet_name(config.wavelet).c_str(),
                core::averaged_snr(hybrid), core::averaged_snr(normal));
  }
  std::printf("# expectation: longer Daubechies/Symlet filters beat Haar "
              "for normal CS; the hybrid box flattens the gap\n");
  return 0;
}
