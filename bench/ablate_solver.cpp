// Ablation — recovery algorithm (DESIGN.md §5.1).  Same windows, same Φ,
// same wavelet dictionary; compares the constrained PDHG decoders (the
// paper's problem (1) with and without the box) against the unconstrained
// LASSO solvers (FISTA, ADMM) and greedy pursuit (OMP, CoSaMP) on the
// synthesis dictionary A = ΦΨ.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/metrics/quality.hpp"
#include "csecg/recovery/admm.hpp"
#include "csecg/recovery/fista.hpp"
#include "csecg/recovery/greedy.hpp"
#include "csecg/recovery/spgl1.hpp"

namespace {

using namespace csecg;

struct Timed {
  double snr = 0.0;
  double millis = 0.0;
};

template <typename Fn>
Timed timed_snr(const linalg::Vector& window, Fn&& reconstruct) {
  const auto start = std::chrono::steady_clock::now();
  const linalg::Vector x = reconstruct();
  const auto stop = std::chrono::steady_clock::now();
  Timed out;
  out.snr = metrics::snr_from_prd(metrics::prd_zero_mean(window, x));
  out.millis = std::chrono::duration<double, std::milli>(stop - start).count();
  return out;
}

}  // namespace

int main() {
  bench::print_header("ablate_solver",
                      "design ablation — recovery algorithm at m=128");

  const auto& database = bench::shared_database();
  core::FrontEndConfig config;
  config.measurements = 128;
  const auto lowres_codec = core::train_lowres_codec(config, database);
  const core::Codec codec(config, lowres_codec);

  // Shared ingredients for the non-core solvers.
  sensing::RmpiConfig rmpi_config;
  rmpi_config.channels = config.measurements;
  rmpi_config.window = config.window;
  rmpi_config.chip_seed = config.chip_seed;
  rmpi_config.input_full_scale = config.dc_reference();
  const sensing::RmpiSimulator rmpi(rmpi_config);
  const dsp::Dwt dwt(config.wavelet, config.window, config.wavelet_levels);
  // Dense A = ΦΨ on the Φ the decoder's own solves see (leakage 0).
  const linalg::Matrix a = bench::dense_phi_psi(rmpi.effective_matrix(), dwt);
  const auto a_op = linalg::LinearOperator::from_matrix(a);

  const std::size_t record_count =
      std::min<std::size_t>(bench::records_budget(), 4);
  std::printf("solver,mean_snr_db,mean_ms\n");

  struct Accumulator {
    double snr = 0.0;
    double ms = 0.0;
    int count = 0;
    void add(const Timed& t) {
      snr += t.snr;
      ms += t.millis;
      ++count;
    }
  };
  Accumulator pdhg_hybrid, pdhg_normal, spgl1, fista, admm, omp, cosamp;

  for (std::size_t r = 0; r < record_count; ++r) {
    const linalg::Vector window = database.record(r).window(720, 512);
    const core::Frame frame = codec.encoder().encode(window);
    const linalg::Vector& y = frame.measurements;
    const double dc = config.dc_reference();

    pdhg_hybrid.add(timed_snr(window, [&] {
      return codec.decoder().decode(frame, core::DecodeMode::kHybrid).x;
    }));
    pdhg_normal.add(timed_snr(window, [&] {
      return codec.decoder().decode(frame, core::DecodeMode::kNormalCs).x;
    }));
    spgl1.add(timed_snr(window, [&] {
      recovery::Spgl1Options options;
      options.max_root_iterations = 10;
      options.max_inner_iterations = 150;
      const double sigma = 1.5 * rmpi.expected_quantization_noise_norm();
      const auto result = recovery::solve_bpdn_spgl1(
          linalg::LinearOperator::from_matrix(a), y, sigma, options);
      linalg::Vector x = dwt.inverse(result.coefficients);
      for (auto& v : x) v += dc;
      return x;
    }));
    fista.add(timed_snr(window, [&] {
      recovery::FistaOptions options;
      options.max_iterations = 400;
      const auto result = recovery::solve_lasso_fista(a_op, y, 50.0, options);
      linalg::Vector x = dwt.inverse(result.coefficients);
      for (auto& v : x) v += dc;
      return x;
    }));
    admm.add(timed_snr(window, [&] {
      recovery::AdmmOptions options;
      options.max_iterations = 400;
      const auto result = recovery::solve_lasso_admm(a, y, 50.0, options);
      linalg::Vector x = dwt.inverse(result.coefficients);
      for (auto& v : x) v += dc;
      return x;
    }));
    omp.add(timed_snr(window, [&] {
      recovery::GreedyOptions options;
      options.max_sparsity = 48;
      options.residual_tol = 1e-3;
      const auto result = recovery::solve_omp(a, y, options);
      linalg::Vector x = dwt.inverse(result.coefficients);
      for (auto& v : x) v += dc;
      return x;
    }));
    cosamp.add(timed_snr(window, [&] {
      recovery::GreedyOptions options;
      options.max_sparsity = 48;
      options.residual_tol = 1e-3;
      const auto result = recovery::solve_cosamp(a, y, options);
      linalg::Vector x = dwt.inverse(result.coefficients);
      for (auto& v : x) v += dc;
      return x;
    }));
  }

  auto print_row = [](const char* name, const Accumulator& acc) {
    std::printf("%s,%.2f,%.1f\n", name, acc.snr / acc.count,
                acc.ms / acc.count);
  };
  print_row("pdhg-hybrid (problem 1)", pdhg_hybrid);
  print_row("pdhg-normal (bpdn)", pdhg_normal);
  print_row("spgl1 (bpdn)", spgl1);
  print_row("fista-lasso", fista);
  print_row("admm-lasso", admm);
  print_row("omp", omp);
  print_row("cosamp", cosamp);
  std::printf("# expectation: hybrid PDHG dominates; unconstrained solvers "
              "cluster below it; greedy trails at this m/n\n");
  return 0;
}
