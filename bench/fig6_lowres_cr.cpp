// The paper's §II side channel priced from one lowres_sweep: codecs trained
// on records [0, train), costs summed over the held-out records after them.
//   Fig. 6  — the fraction of the raw B-bit stream the delta-Huffman coder
//             transmits, for bit resolutions 3..10 (higher resolution ⇒ less
//             compressible deltas ⇒ larger fraction).
//   Table I — overhead Dᵢ (%) versus a 12-bit original (Eq. 2:
//             Dᵢ = CRᵢ·i/12) for scalar Huffman, the zero-run extension
//             and the delta-entropy ideal (DESIGN.md §5.5's coder
//             ablation).  Paper row: 26.3, 17.6, 11.4, 7.8, 5.6, 4.2, 3.1,
//             2.3 for 10..3 bits.
//   Fig. 5  — on-node storage of the offline-trained Huffman codebook.
//             Paper anchor: ~68 bytes at 7 bits, ~550 B at 10 bits.
//   Fig. 4  — pdf of the training corpus's consecutive-sample differences
//             at 10/8/6/4 bits: sharply non-uniform, so Huffman coding
//             compresses it well.
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/metrics/quality.hpp"

int main() {
  using namespace csecg;
  const auto [train_records, eval_count] =
      bench::held_out_split(bench::shared_database().size());
  const std::size_t windows =
      std::max<std::size_t>(bench::windows_budget(), 4);
  bench::print_header("fig6_lowres_cr",
                      "Fig. 6 — average compression ratio of the "
                      "low-resolution path vs bit resolution; Table I, "
                      "Fig. 5 and Fig. 4 from the same codebooks",
                      train_records + eval_count, windows);
  const auto depths = bench::lowres_sweep(train_records, eval_count, windows);

  std::printf("bits,compressed_fraction,bits_per_sample\n");
  for (const auto& depth : depths) {
    std::printf("%d,%.4f,%.3f\n", depth.bits,
                depth.scalar_bits / depth.raw_bits,
                depth.scalar_bits / depth.samples);
  }
  std::printf("# paper shape: fraction rises with resolution (deltas "
              "approach uniform)\n");

  std::printf("\n# Table I — side-channel overhead Dᵢ (%%) for bit "
              "resolutions 10..3\n");
  std::printf("bits,huffman_D,zero_run_D,entropy_D,paper_D\n");
  const double paper[] = {2.3, 3.1, 4.2, 5.6, 7.8, 11.4, 17.6, 26.3};
  for (auto depth = depths.rbegin(); depth != depths.rend(); ++depth) {
    const double fraction = depth->scalar_bits / depth->raw_bits;  // CRᵢ
    std::printf("%d,%.2f,%.2f,%.2f,%.1f\n", depth->bits,
                metrics::side_channel_overhead(fraction, depth->bits),
                depth->zero_run_bits / depth->samples / 12.0 * 100.0,
                bench::entropy_bits(depth->eval_deltas) / 12.0 * 100.0,
                paper[depth->bits - 3]);
  }
  std::printf("# Dᵢ = CRᵢ·i/12 per Eq. 2.  Scalar Huffman floors at 1 "
              "bit/sample; zero-run coding and the entropy ideal reach the "
              "paper's sub-1-bit/sample low-depth rows\n");

  std::printf("\n# Fig. 5 — Huffman codebook storage vs quantization "
              "depth\n");
  std::printf("bits,codebook_entries,storage_bytes\n");
  for (const auto& depth : depths) {
    std::printf("%d,%zu,%zu\n", depth.bits,
                depth.scalar.codebook().entries().size(),
                depth.scalar.codebook().storage_bytes());
  }
  std::printf("# paper anchor: 68 B at 7-bit\n");

  std::printf("\n# Fig. 4 — pdf of quantized-sample differences over the "
              "%zu training records\n",
              train_records);
  for (int bits : {10, 8, 6, 4}) {
    const auto& counts = depths[static_cast<std::size_t>(bits - 3)]
                             .train_deltas;
    std::uint64_t total = 0;
    for (const auto& [diff, count] : counts) total += count;
    const auto pdf = [&](std::int64_t diff) {
      const auto found = counts.find(diff);
      return found == counts.end() ? 0.0
                                   : static_cast<double>(found->second) /
                                         static_cast<double>(total);
    };
    std::printf("bits=%d  (peak at zero = %.3f)\n", bits, pdf(0));
    std::printf("difference,pdf\n");
    for (std::int64_t d = -15; d <= 15; ++d) {
      std::printf("%lld,%.6f\n", static_cast<long long>(d), pdf(d));
    }
    std::printf("# entropy: %.3f bits/sample\n\n",
                bench::entropy_bits(counts));
  }
  return 0;
}
