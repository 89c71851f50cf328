// Fig. 4 — probability density of the difference between consecutive
// quantized samples of the low-resolution channel, for 10/8/6/4-bit
// resolution.  The paper's point: the delta distribution is sharply
// non-uniform, so Huffman coding compresses it well.
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "csecg/coding/delta.hpp"
#include "csecg/sensing/lowres_channel.hpp"

int main() {
  using namespace csecg;
  const auto& database = bench::shared_database();
  const std::size_t records = bench::records_budget();
  const std::size_t windows = std::max<std::size_t>(bench::windows_budget(),
                                                    4);
  bench::print_header("fig4_delta_pdf",
                      "Fig. 4 — pdf of quantized-sample differences at "
                      "10/8/6/4-bit resolution",
                      records, windows);

  for (int bits : {10, 8, 6, 4}) {
    sensing::LowResConfig config;
    config.bits = bits;
    const sensing::LowResChannel channel(config);
    std::map<std::int64_t, std::uint64_t> counts;
    std::uint64_t total = 0;
    for (std::size_t r = 0; r < records; ++r) {
      for (const auto& window :
           ecg::extract_windows(database.record(r), 512, windows)) {
        const auto out = channel.sample(window);
        const auto enc = coding::delta_encode(out.codes);
        for (auto diff : enc.diffs) {
          ++counts[diff];
          ++total;
        }
      }
    }
    // Print the pdf over the paper's [-15, 15] delta axis.
    std::printf("bits=%d  (peak at zero = %.3f)\n", bits,
                counts.count(0)
                    ? static_cast<double>(counts.at(0)) /
                          static_cast<double>(total)
                    : 0.0);
    std::printf("difference,pdf\n");
    for (std::int64_t d = -15; d <= 15; ++d) {
      const double p = counts.count(d)
                           ? static_cast<double>(counts.at(d)) /
                                 static_cast<double>(total)
                           : 0.0;
      std::printf("%lld,%.6f\n", static_cast<long long>(d), p);
    }
    std::vector<std::pair<std::int64_t, std::uint64_t>> hist(counts.begin(),
                                                             counts.end());
    std::printf("# entropy: %.3f bits/sample\n\n",
                coding::entropy_bits(hist));
  }
  return 0;
}
