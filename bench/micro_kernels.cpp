// Microbenchmarks (google-benchmark) for the kernels that dominate
// end-to-end runtime: the DWT pair, RMPI measurement, record synthesis,
// the PDHG solve at the paper's operating point, delta-Huffman coding, the
// dense gemv that underlies everything, and the sign-packed kernels Φ
// actually runs.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "csecg/core/frontend.hpp"
#include "csecg/dsp/dwt.hpp"
#include "csecg/ecg/record.hpp"
#include "csecg/linalg/matrix.hpp"
#include "csecg/linalg/operator.hpp"
#include "csecg/parallel/thread_pool.hpp"
#include "csecg/rng/distributions.hpp"
#include "csecg/rng/xoshiro.hpp"
#include "csecg/sensing/rmpi.hpp"
#include "sign_packed.hpp"

namespace {

using namespace csecg;

const ecg::EcgRecord& bench_record() {
  static const ecg::EcgRecord record = [] {
    ecg::RecordConfig config;
    config.duration_seconds = 10.0;
    return ecg::generate_record(ecg::mitbih_surrogate_profiles()[0], config,
                                42);
  }();
  return record;
}

void BM_DwtForward(benchmark::State& state) {
  const dsp::Dwt dwt(dsp::WaveletFamily::kDb4, 512, 5);
  const linalg::Vector x = bench_record().window(720, 512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwt.forward(x));
  }
}
BENCHMARK(BM_DwtForward);

void BM_DwtInverse(benchmark::State& state) {
  const dsp::Dwt dwt(dsp::WaveletFamily::kDb4, 512, 5);
  const linalg::Vector coeffs = dwt.forward(bench_record().window(720, 512));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwt.inverse(coeffs));
  }
}
BENCHMARK(BM_DwtInverse);

void BM_RmpiMeasure(benchmark::State& state) {
  sensing::RmpiConfig config;
  config.channels = static_cast<std::size_t>(state.range(0));
  config.window = 512;
  const sensing::RmpiSimulator rmpi(config);
  const linalg::Vector x = bench_record().window(720, 512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rmpi.measure(x));
  }
}
BENCHMARK(BM_RmpiMeasure)->Arg(96)->Arg(240);

// One full-length database record (60 s at 360 Hz): ECGSYN synthesis on
// the 4x grid, anti-alias decimation, noise and digitization.
void BM_SynthesizeRecord(benchmark::State& state) {
  const ecg::RecordConfig config;
  const ecg::RecordProfile& profile = ecg::mitbih_surrogate_profiles()[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecg::generate_record(profile, config, 42));
  }
}
BENCHMARK(BM_SynthesizeRecord)->Unit(benchmark::kMillisecond);

void BM_HuffmanRoundtrip(benchmark::State& state) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 30.0;
  const ecg::SyntheticDatabase database(record_config, 2015);
  core::FrontEndConfig config;
  const auto codec = core::train_lowres_codec(config, database, 4, 4);
  sensing::LowResConfig lowres_config;
  const sensing::LowResChannel channel(lowres_config);
  const auto codes = channel.sample(bench_record().window(720, 512)).codes;
  for (auto _ : state) {
    std::size_t bits = 0;
    const auto payload = codec.encode(codes, bits);
    benchmark::DoNotOptimize(codec.decode(payload, codes.size()));
  }
}
BENCHMARK(BM_HuffmanRoundtrip);

void BM_HybridDecode(benchmark::State& state) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 30.0;
  const ecg::SyntheticDatabase database(record_config, 2015);
  core::FrontEndConfig config;
  config.measurements = static_cast<std::size_t>(state.range(0));
  config.solver.max_iterations = 500;  // Fixed work per solve.
  config.solver.tol = 1e-12;           // Never stop early.
  const auto lowres_codec = core::train_lowres_codec(config, database, 4, 2);
  const core::Codec codec(config, lowres_codec);
  const core::Frame frame =
      codec.encoder().encode(bench_record().window(720, 512));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec.decoder().decode(frame, core::DecodeMode::kHybrid));
  }
}
BENCHMARK(BM_HybridDecode)->Arg(96)->Unit(benchmark::kMillisecond);

linalg::Matrix random_matrix(std::size_t rows, std::size_t cols) {
  rng::Xoshiro256 g(7);
  linalg::Matrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) a(i, j) = rng::normal(g);
  }
  return a;
}

// Size sweep over the blocked gemv: the operating points the codec hits
// (96×512, 240×512) plus square shapes around them.  items_processed
// reports flop-equivalents (2mn per product).
void BM_GemvSweep(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const linalg::Matrix a = random_matrix(m, n);
  linalg::Vector x(n, 1.0);
  linalg::Vector y(m);
  for (auto _ : state) {
    linalg::multiply_into(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * n));
}
BENCHMARK(BM_GemvSweep)
    ->Args({64, 64})
    ->Args({96, 512})
    ->Args({240, 512})
    ->Args({256, 512})
    ->Args({256, 256})
    ->Args({512, 512})
    ->Args({1024, 1024});

void BM_GemvTransposeSweep(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const linalg::Matrix a = random_matrix(m, n);
  linalg::Vector y(m, 1.0);
  linalg::Vector x(n);
  for (auto _ : state) {
    linalg::multiply_transpose_into(a, y, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * n));
}
BENCHMARK(BM_GemvTransposeSweep)
    ->Args({64, 64})
    ->Args({96, 512})
    ->Args({240, 512})
    ->Args({256, 512})
    ->Args({512, 512});

// The same products on a ±1 matrix through the sign-packed table-lookup
// kernels that LinearOperator::from_matrix picks for it (the decoder's Φ
// at the hybrid m = 96 and normal-CS m = 256 operating points).
linalg::Matrix sign_matrix(std::size_t rows, std::size_t cols) {
  rng::Xoshiro256 g(7);
  linalg::Matrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      a(i, j) = (g.next() >> 63) != 0 ? 1.0 : -1.0;
    }
  }
  return a;
}

// Each sign-packed kernel runs twice: on the kernel this CPU selects
// (`selected`, named in the run's context as sign_packed_kernel) and on
// the portable table kernel, which every CPU runs and which the selected
// one must match bit for bit.
void BM_SignPackedGemv(benchmark::State& state,
                       linalg::detail::LookupKernel kernel) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto phi = linalg::detail::SignPackedMatrix::pack(sign_matrix(m, n),
                                                          kernel);
  linalg::Vector x(n, 1.0);
  linalg::Vector y(m);
  for (auto _ : state) {
    phi->multiply_into(x, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * n));
}
BENCHMARK_CAPTURE(BM_SignPackedGemv, selected,
                  linalg::detail::selected_kernel())
    ->Args({96, 512})
    ->Args({256, 512});
BENCHMARK_CAPTURE(BM_SignPackedGemv, portable,
                  linalg::detail::LookupKernel::kPortable)
    ->Args({96, 512})
    ->Args({256, 512});

void BM_SignPackedGemvTranspose(benchmark::State& state,
                                linalg::detail::LookupKernel kernel) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto phi = linalg::detail::SignPackedMatrix::pack(sign_matrix(m, n),
                                                          kernel);
  linalg::Vector y(m, 1.0);
  linalg::Vector x(n);
  for (auto _ : state) {
    phi->multiply_transpose_into(y, x);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * n));
}
BENCHMARK_CAPTURE(BM_SignPackedGemvTranspose, selected,
                  linalg::detail::selected_kernel())
    ->Args({96, 512})
    ->Args({256, 512});
BENCHMARK_CAPTURE(BM_SignPackedGemvTranspose, portable,
                  linalg::detail::LookupKernel::kPortable)
    ->Args({96, 512})
    ->Args({256, 512});

// ThreadPool scaling on an embarrassingly parallel compute-bound loop.
// On a single-core host the >1-thread variants measure the pool's
// scheduling overhead rather than speedup.
void BM_ThreadPoolScaling(benchmark::State& state) {
  parallel::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kSpin = 20000;
  std::vector<double> out(kTasks);
  for (auto _ : state) {
    pool.parallel_for(0, kTasks, [&](std::size_t i) {
      double acc = static_cast<double>(i) + 1.0;
      for (std::size_t k = 0; k < kSpin; ++k) {
        acc = acc * 1.0000001 + 1e-9;
      }
      out[i] = acc;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTasks));
}
BENCHMARK(BM_ThreadPoolScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// parallel_for dispatch overhead on an empty body: the fixed cost a
// caller pays to fan out work.
void BM_ThreadPoolDispatchOverhead(benchmark::State& state) {
  parallel::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::atomic<std::size_t> sink{0};
  for (auto _ : state) {
    pool.parallel_for(0, pool.threads(), [&](std::size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_ThreadPoolDispatchOverhead)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "sign_packed_kernel",
      linalg::detail::kernel_name(linalg::detail::selected_kernel()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
