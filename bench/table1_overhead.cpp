// Table I — average overhead Dᵢ (%) of the low-resolution channel versus a
// 12-bit original, for bit resolutions 10..3 (Eq. 2: Dᵢ = CRᵢ·i/12).
// Paper row: 26.3, 17.6, 11.4, 7.8, 5.6, 4.2, 3.1, 2.3.
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "csecg/coding/delta.hpp"
#include "csecg/metrics/quality.hpp"
#include "csecg/sensing/lowres_channel.hpp"

int main() {
  using namespace csecg;
  const auto& database = bench::shared_database();
  const auto [train_records, eval_count] =
      bench::held_out_split(database.size());
  const std::size_t windows =
      std::max<std::size_t>(bench::windows_budget(), 4);
  const std::size_t eval_start = train_records;
  bench::print_header("table1_overhead",
                      "Table I — side-channel overhead Dᵢ for bit "
                      "resolutions 10..3",
                      train_records + eval_count, windows);

  const double paper[] = {26.3, 17.6, 11.4, 7.8, 5.6, 4.2, 3.1, 2.3};
  std::printf("bits,huffman_overhead_percent,entropy_overhead_percent,"
              "paper_percent\n");
  int row = 0;
  for (int bits = 10; bits >= 3; --bits, ++row) {
    core::FrontEndConfig config;
    config.lowres_bits = bits;
    const auto codec =
        core::train_lowres_codec(config, database, train_records, windows);
    sensing::LowResConfig lowres_config;
    lowres_config.bits = bits;
    const sensing::LowResChannel channel(lowres_config);

    double total_bits = 0.0;
    double total_raw_bits = 0.0;
    std::map<std::int64_t, std::uint64_t> delta_counts;
    double total_samples = 0.0;
    for (std::size_t r = eval_start; r < eval_start + eval_count; ++r) {
      for (const auto& window :
           ecg::extract_windows(database.record(r), 512, windows)) {
        const auto codes = channel.sample(window).codes;
        total_bits += static_cast<double>(codec.encoded_bits(codes));
        total_raw_bits += static_cast<double>(window.size()) * bits;
        total_samples += static_cast<double>(window.size());
        for (auto diff : coding::delta_encode(codes).diffs) {
          ++delta_counts[diff];
        }
      }
    }
    const double fraction = total_bits / total_raw_bits;  // CRᵢ of Eq. 2.
    const double overhead = metrics::side_channel_overhead(fraction, bits);
    const std::vector<std::pair<std::int64_t, std::uint64_t>> hist(
        delta_counts.begin(), delta_counts.end());
    const double entropy_overhead =
        coding::entropy_bits(hist) / 12.0 * 100.0;
    std::printf("%d,%.2f,%.2f,%.1f\n", bits, overhead, entropy_overhead,
                paper[row]);
  }
  std::printf("# Dᵢ = CRᵢ·i/12 per Eq. 2.  Scalar Huffman floors at 1 "
              "bit/sample; the entropy column is the block-coding ideal "
              "the paper's low-depth rows track\n");
  return 0;
}
