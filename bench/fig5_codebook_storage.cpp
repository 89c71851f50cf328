// Fig. 5 — on-node storage (bytes) of the offline-generated Huffman
// codebook for quantization depths 3..10 bits.  Paper anchor: ~68 bytes at
// 7 bits, rising steeply toward 10 bits (~550 B).
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace csecg;
  const auto& database = bench::shared_database();
  const std::size_t records = bench::records_budget();
  const std::size_t windows =
      std::max<std::size_t>(bench::windows_budget(), 4);
  bench::print_header("fig5_codebook_storage",
                      "Fig. 5 — Huffman codebook storage vs quantization "
                      "depth",
                      records, windows);

  std::printf("bits,codebook_entries,storage_bytes\n");
  for (int bits = 3; bits <= 10; ++bits) {
    core::FrontEndConfig config;
    config.lowres_bits = bits;
    const auto codec =
        core::train_lowres_codec(config, database, records, windows);
    std::printf("%d,%zu,%zu\n", bits, codec.codebook().entries().size(),
                codec.codebook().storage_bytes());
  }
  std::printf("# paper anchor: 68 B at 7-bit\n");
  return 0;
}
