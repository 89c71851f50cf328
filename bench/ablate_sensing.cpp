// Ablation — sensing ensemble (DESIGN.md §5.4).  The paper's architecture
// argument needs Φ realizable as ±1 chipping sequences; this bench checks
// that the Rademacher ensemble costs nothing in reconstruction quality
// against the ideal Gaussian ensemble and a sparse-binary one.
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"

int main() {
  using namespace csecg;
  const auto& database = bench::shared_database();
  const std::size_t records = std::min<std::size_t>(bench::records_budget(),
                                                    6);
  const std::size_t windows = bench::windows_budget();
  bench::print_header("ablate_sensing",
                      "design ablation — sensing ensemble at m=96", records,
                      windows);
  core::FrontEndConfig base;
  const auto lowres_codec = core::train_lowres_codec(base, database);

  std::vector<core::FrontEndConfig> configs;
  for (sensing::Ensemble ensemble :
       {sensing::Ensemble::kRademacher, sensing::Ensemble::kGaussian,
        sensing::Ensemble::kSparseBinary}) {
    configs.push_back(base);
    configs.back().ensemble = ensemble;
  }
  const auto points = bench::sweep(configs, lowres_codec, records, windows);

  std::printf("ensemble,hybrid_snr_db,cs_snr_db\n");
  for (const auto& [config, hybrid, normal] : points) {
    std::printf("%s,%.2f,%.2f\n",
                sensing::ensemble_name(config.ensemble).c_str(),
                core::averaged_snr(hybrid), core::averaged_snr(normal));
  }
  std::printf("# expectation: Rademacher ~ Gaussian (universality); "
              "sparse-binary trails slightly\n");
  return 0;
}
