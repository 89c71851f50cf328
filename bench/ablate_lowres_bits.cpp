// Ablation — the side-channel resolution trade-off that justified the
// paper's 7-bit pick (DESIGN.md §5.3).  Sweeps the low-resolution bit
// depth at fixed m: more bits tighten the box (better SNR) but raise the
// overhead Dᵢ, so the *net* compression ratio peaks in the middle.
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"

int main() {
  using namespace csecg;
  const auto& database = bench::shared_database();
  const std::size_t records = std::min<std::size_t>(bench::records_budget(),
                                                    6);
  const std::size_t windows = bench::windows_budget();
  bench::print_header("ablate_lowres_bits",
                      "design ablation — side-channel bit depth at m=64",
                      records, windows);

  std::printf("lowres_bits,hybrid_snr_db,overhead_percent,net_cr_percent,"
              "codebook_bytes\n");
  for (int bits = 3; bits <= 10; ++bits) {
    core::FrontEndConfig config;
    config.measurements = 64;
    config.lowres_bits = bits;
    const auto lowres_codec = core::train_lowres_codec(config, database);
    const core::Codec codec(config, lowres_codec);
    const auto reports = core::run_database(codec, database, records, windows,
                                            core::DecodeMode::kHybrid);
    double overhead = 0.0;
    double net_cr = 0.0;
    for (const auto& r : reports) {
      overhead += r.overhead_percent;
      net_cr += r.net_cr_percent;
    }
    overhead /= static_cast<double>(reports.size());
    net_cr /= static_cast<double>(reports.size());
    std::printf("%d,%.2f,%.2f,%.2f,%zu\n", bits,
                core::averaged_snr(reports), overhead, net_cr,
                lowres_codec.codebook().storage_bytes());
  }
  std::printf("# expectation: SNR rises ~6 dB/bit, overhead rises too; "
              "the knee near 7 bits is the paper's design point\n");
  return 0;
}
