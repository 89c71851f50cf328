// Ablation — recovery algorithm (DESIGN.md §5.1).  Same windows, same Φ,
// same wavelet dictionary; compares the constrained PDHG decoders (the
// paper's problem (1) with and without the box) against the unconstrained
// LASSO solved by FISTA on the synthesis dictionary A = ΦΨ, an
// independent cross-check of PDHG.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/dsp/dwt.hpp"
#include "csecg/linalg/matrix.hpp"
#include "csecg/metrics/quality.hpp"
#include "csecg/recovery/fista.hpp"

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

// Dense synthesis dictionary A = Φ·Ψ (column j is Φ applied to wavelet
// atom j): the matrix the coefficient-domain FISTA solve takes.
linalg::Matrix dense_phi_psi(const linalg::Matrix& phi, const dsp::Dwt& dwt) {
  const std::size_t n = phi.cols();
  linalg::Matrix a(phi.rows(), n);
  linalg::Vector unit(n);
  for (std::size_t j = 0; j < n; ++j) {
    unit[j] = 1.0;
    const linalg::Vector column = linalg::multiply(phi, dwt.inverse(unit));
    for (std::size_t i = 0; i < phi.rows(); ++i) a(i, j) = column[i];
    unit[j] = 0.0;
  }
  return a;
}

}  // namespace

int main() {
  const std::size_t record_count =
      std::min<std::size_t>(bench::records_budget(), 4);
  bench::print_header("ablate_solver",
                      "design ablation — recovery algorithm at m=128",
                      record_count, 1);

  const auto& database = bench::shared_database();
  core::FrontEndConfig config;
  config.measurements = 128;
  const auto lowres_codec = core::train_lowres_codec(config, database);
  const core::Codec codec(config, lowres_codec);

  // Shared ingredients for the FISTA row.
  sensing::RmpiConfig rmpi_config;
  rmpi_config.channels = config.measurements;
  rmpi_config.window = config.window;
  rmpi_config.chip_seed = config.chip_seed;
  rmpi_config.input_full_scale = config.dc_reference();
  const sensing::RmpiSimulator rmpi(rmpi_config);
  const dsp::Dwt dwt(config.wavelet, config.window, config.wavelet_levels);
  // Dense A = ΦΨ on the Φ the decoder's own solves see (leakage 0).
  const auto a_op = linalg::LinearOperator::from_matrix(
      dense_phi_psi(rmpi.effective_matrix(), dwt));

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
  Accumulator pdhg_hybrid, pdhg_normal, fista;

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
    fista.add(timed_snr(window, [&] {
      recovery::FistaOptions options;
      options.max_iterations = 400;
      const auto result = recovery::solve_lasso_fista(a_op, y, 50.0, options);
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
  print_row("fista-lasso", fista);
  std::printf("# expectation: hybrid PDHG dominates; the unconstrained "
              "LASSO trails it\n");
  return 0;
}
