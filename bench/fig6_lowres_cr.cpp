// Fig. 6 — average compression ratio of the low-resolution path for bit
// resolutions 3..10: the fraction of the raw B-bit stream the delta-Huffman
// coder actually transmits (compressed/original; higher resolution ⇒ less
// compressible deltas ⇒ larger fraction).
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/sensing/lowres_channel.hpp"

int main() {
  using namespace csecg;
  const auto& database = bench::shared_database();
  const auto [train_records, eval_count] =
      bench::held_out_split(database.size());
  const std::size_t windows =
      std::max<std::size_t>(bench::windows_budget(), 4);
  const std::size_t eval_start = train_records;
  bench::print_header("fig6_lowres_cr",
                      "Fig. 6 — average compression ratio of the "
                      "low-resolution path vs bit resolution",
                      train_records + eval_count, windows);

  std::printf("bits,compressed_fraction,bits_per_sample\n");
  for (int bits = 3; bits <= 10; ++bits) {
    core::FrontEndConfig config;
    config.lowres_bits = bits;
    const auto codec =
        core::train_lowres_codec(config, database, train_records, windows);
    sensing::LowResConfig lowres_config;
    lowres_config.bits = bits;
    const sensing::LowResChannel channel(lowres_config);

    double total_bits = 0.0;
    double total_raw_bits = 0.0;
    double total_samples = 0.0;
    for (std::size_t r = eval_start; r < eval_start + eval_count; ++r) {
      for (const auto& window :
           ecg::extract_windows(database.record(r), 512, windows)) {
        const auto out = channel.sample(window);
        total_bits += static_cast<double>(codec.encoded_bits(out.codes));
        total_raw_bits += static_cast<double>(window.size()) * bits;
        total_samples += static_cast<double>(window.size());
      }
    }
    std::printf("%d,%.4f,%.3f\n", bits, total_bits / total_raw_bits,
                total_bits / total_samples);
  }
  std::printf("# paper shape: fraction rises with resolution (deltas "
              "approach uniform)\n");
  return 0;
}
