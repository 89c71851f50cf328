// Design ablations (DESIGN.md §5.2–5.4), each block one row per variant
// with the fraction of its solves that converged:
//  * wavelet family at the paper's m = 96 point, hybrid and normal CS.
//    The authors' earlier work picked Daubechies wavelets for ECG; this
//    quantifies how much the family matters once the hybrid box is in play.
//  * sensing ensemble at m = 96.  The architecture argument needs Φ
//    realizable as ±1 chipping sequences; Rademacher should cost nothing
//    against the ideal Gaussian ensemble and a sparse-binary one.
//  * side-channel depth at m = 64, hybrid only, each depth with its own
//    codebook.  Its overhead, net CR and codebook size are Table I, Fig. 6
//    and Fig. 5 in fig6_lowres_cr, measured on held-out records.
// The first two blocks read one design-point sweep over the 7 families and
// the 2 other ensembles, so the base point (db4, Rademacher) decodes once.
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"

int main() {
  using namespace csecg;
  const std::size_t records = std::min<std::size_t>(bench::records_budget(),
                                                    6);
  const std::size_t windows = bench::windows_budget();
  bench::print_header("ablate_design",
                      "design ablations — wavelet family and sensing "
                      "ensemble at m=96, side-channel depth at m=64",
                      records, windows);
  const core::FrontEndConfig base;

  std::vector<core::FrontEndConfig> configs;
  for (dsp::WaveletFamily family :
       {dsp::WaveletFamily::kHaar, dsp::WaveletFamily::kDb2,
        dsp::WaveletFamily::kDb4, dsp::WaveletFamily::kDb8,
        dsp::WaveletFamily::kSym4, dsp::WaveletFamily::kSym8,
        dsp::WaveletFamily::kCoif2}) {
    configs.push_back(base);
    configs.back().wavelet = family;
  }
  for (sensing::Ensemble ensemble :
       {sensing::Ensemble::kGaussian, sensing::Ensemble::kSparseBinary}) {
    configs.push_back(base);
    configs.back().ensemble = ensemble;
  }
  const auto points = bench::sweep(
      configs, core::train_lowres_codec(base, bench::shared_database()),
      records, windows);
  const auto print_row = [](const std::string& name,
                            const bench::DesignPoint& point) {
    std::printf("%s,%.2f,%.2f,%.3f,%.3f\n", name.c_str(),
                core::averaged_snr(point.hybrid),
                core::averaged_snr(point.normal),
                bench::converged_fraction(point.hybrid),
                bench::converged_fraction(point.normal));
  };

  std::printf("wavelet,hybrid_snr_db,cs_snr_db,hybrid_converged,"
              "cs_converged\n");
  for (const auto& point : points) {
    if (point.config.ensemble != base.ensemble) continue;
    print_row(dsp::wavelet_name(point.config.wavelet), point);
  }
  std::printf("# expectation: longer Daubechies/Symlet filters beat Haar "
              "for normal CS; the hybrid box flattens the gap\n\n");

  std::printf("ensemble,hybrid_snr_db,cs_snr_db,hybrid_converged,"
              "cs_converged\n");
  for (const auto& point : points) {
    if (point.config.wavelet != base.wavelet) continue;
    print_row(sensing::ensemble_name(point.config.ensemble), point);
  }
  std::printf("# expectation: Rademacher ~ Gaussian (universality); "
              "sparse-binary trails slightly\n\n");

  std::printf("lowres_bits,hybrid_snr_db,hybrid_converged\n");
  for (const auto& [bits, hybrid] : bench::depth_sweep(64, records, windows)) {
    std::printf("%d,%.2f,%.3f\n", bits, core::averaged_snr(hybrid),
                bench::converged_fraction(hybrid));
  }
  std::printf("# expectation: SNR rises with every bit as the box tightens; "
              "fig6_lowres_cr prints what each bit costs\n");
  return 0;
}
