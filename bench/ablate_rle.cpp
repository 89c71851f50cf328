// Ablation — entropy coder (DESIGN.md §5.5).  Scalar delta-Huffman (what
// the paper's 68-byte codebook implies) vs the zero-run extension that
// breaks the 1 bit/sample Huffman floor, vs the delta-entropy ideal.
// Shows which Table I rows each coder can reach.
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "csecg/coding/delta.hpp"
#include "csecg/coding/zero_run_codec.hpp"
#include "csecg/sensing/lowres_channel.hpp"

int main() {
  using namespace csecg;
  const auto& database = bench::shared_database();
  const auto [train_records, eval_count] =
      bench::held_out_split(database.size());
  const std::size_t windows =
      std::max<std::size_t>(bench::windows_budget(), 4);
  const std::size_t eval_start = train_records;
  bench::print_header("ablate_rle",
                      "coder ablation — scalar Huffman vs zero-run vs "
                      "entropy ideal, overhead D_i (%)",
                      train_records + eval_count, windows);

  std::printf("bits,huffman_D,zero_run_D,entropy_D,paper_D\n");
  const double paper[] = {2.3, 3.1, 4.2, 5.6, 7.8, 11.4, 17.6, 26.3};
  int row = 0;
  for (int bits = 3; bits <= 10; ++bits, ++row) {
    sensing::LowResConfig lowres_config;
    lowres_config.bits = bits;
    const sensing::LowResChannel channel(lowres_config);

    // Shared training corpus.
    std::vector<std::vector<std::int64_t>> corpus;
    for (std::size_t r = 0; r < train_records; ++r) {
      for (const auto& window :
           ecg::extract_windows(database.record(r), 512, windows)) {
        corpus.push_back(channel.sample(window).codes);
      }
    }
    core::FrontEndConfig config;
    config.lowres_bits = bits;
    const auto scalar =
        core::train_lowres_codec(config, database, train_records, windows);
    const auto zero_run = coding::ZeroRunDeltaCodec::train(corpus, bits);

    double scalar_bits = 0.0;
    double rle_bits = 0.0;
    double samples = 0.0;
    std::map<std::int64_t, std::uint64_t> delta_counts;
    for (std::size_t r = eval_start; r < eval_start + eval_count; ++r) {
      for (const auto& window :
           ecg::extract_windows(database.record(r), 512, windows)) {
        const auto codes = channel.sample(window).codes;
        scalar_bits += static_cast<double>(scalar.encoded_bits(codes));
        rle_bits += static_cast<double>(zero_run.encoded_bits(codes));
        samples += static_cast<double>(codes.size());
        for (auto diff : coding::delta_encode(codes).diffs) {
          ++delta_counts[diff];
        }
      }
    }
    const std::vector<std::pair<std::int64_t, std::uint64_t>> hist(
        delta_counts.begin(), delta_counts.end());
    std::printf("%d,%.2f,%.2f,%.2f,%.1f\n", bits,
                scalar_bits / samples / 12.0 * 100.0,
                rle_bits / samples / 12.0 * 100.0,
                coding::entropy_bits(hist) / 12.0 * 100.0, paper[row]);
  }
  std::printf("# zero-run coding reaches the paper's sub-1-bit/sample "
              "low-depth rows that scalar Huffman cannot\n");
  return 0;
}
