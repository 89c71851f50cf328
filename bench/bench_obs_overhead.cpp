// Observability overhead tracker (ISSUE 3).
//
// Runs a run_database workload on the shared synthetic database twice —
// with timing instrumentation armed (obs::set_enabled(true), the default)
// and disarmed — interleaving the arms over several repetitions so slow
// drift (turbo, thermal) hits both equally, and reports the throughput
// cost of instrumentation.  The acceptance bar for the tentpole is a
// < 2% slowdown for the enabled configuration; the bench exits non-zero
// above a 5% guard band so CI catches a regression without flaking on
// machine noise.  Results land in BENCH_obs.json.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/parallel/thread_pool.hpp"

namespace {

using namespace csecg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main() {
  const auto& database = bench::shared_database();
  core::FrontEndConfig config;
  const auto lowres_codec = core::train_lowres_codec(config, database, 3, 3);
  const core::Codec codec(config, lowres_codec);

  const std::size_t records = std::min<std::size_t>(bench::records_budget(), 8);
  const std::size_t windows = std::max<std::size_t>(bench::windows_budget(), 2);
  bench::print_header("bench_obs_overhead", "observability throughput cost",
                      records, windows);
  const std::size_t total_windows = records * windows;
  parallel::ThreadPool pool(1);  // Serial: per-window cost is not hidden
                                 // behind thread scheduling noise.

  // Warm caches (record generation, operator setup, first-touch shard
  // registration) before any timed arm.
  for (std::size_t r = 0; r < records; ++r) (void)database.record(r);
  obs::set_enabled(true);
  (void)core::run_database(codec, database, records, windows,
                           core::DecodeMode::kAuto, pool);

  // Container-tenancy load spikes at the ~second scale make a 2% effect
  // hard to see in 5 samples; best-of-9 keeps the floor estimate honest.
  constexpr int kReps = 9;
  double on_best = 1e300;
  double off_best = 1e300;
  std::printf("arm,rep,seconds,windows_per_sec\n");
  for (int rep = 0; rep < kReps; ++rep) {
    obs::set_enabled(false);
    auto start = Clock::now();
    (void)core::run_database(codec, database, records, windows,
                             core::DecodeMode::kAuto, pool);
    const double off_seconds = seconds_since(start);
    off_best = std::min(off_best, off_seconds);
    std::printf("off,%d,%.4f,%.2f\n", rep, off_seconds,
                static_cast<double>(total_windows) / off_seconds);

    obs::set_enabled(true);
    start = Clock::now();
    (void)core::run_database(codec, database, records, windows,
                             core::DecodeMode::kAuto, pool);
    const double on_seconds = seconds_since(start);
    on_best = std::min(on_best, on_seconds);
    std::printf("on,%d,%.4f,%.2f\n", rep, on_seconds,
                static_cast<double>(total_windows) / on_seconds);
  }
  obs::set_enabled(true);  // Leave the process in the default state.

  // Best-of-reps throughput: robust to one-off scheduler hiccups, which
  // otherwise dominate a ratio of two ~second-scale measurements.
  const double on_wps = static_cast<double>(total_windows) / on_best;
  const double off_wps = static_cast<double>(total_windows) / off_best;
  const double overhead_percent = (off_wps / on_wps - 1.0) * 100.0;
  std::printf("# instrumented-on:  %.2f windows/s\n", on_wps);
  std::printf("# instrumented-off: %.2f windows/s\n", off_wps);
  std::printf("# overhead: %.2f%% (target < 2%%, CI gate at 5%%)\n",
              overhead_percent);

  std::FILE* json = std::fopen("BENCH_obs.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_obs.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"obs_overhead\",\n");
  std::fprintf(json,
               "  \"workload\": {\"records\": %zu, \"windows_per_record\": "
               "%zu, \"window\": %zu, \"measurements\": %zu, \"reps\": %d},\n",
               records, windows, config.window, config.measurements, kReps);
  std::fprintf(json,
               "  \"instrumented_on\": {\"best_seconds\": %.4f, "
               "\"windows_per_sec\": %.3f},\n",
               on_best, on_wps);
  std::fprintf(json,
               "  \"instrumented_off\": {\"best_seconds\": %.4f, "
               "\"windows_per_sec\": %.3f},\n",
               off_best, off_wps);
  std::fprintf(json, "  \"overhead_percent\": %.3f,\n", overhead_percent);
  std::fprintf(json, "  \"target_percent\": 2.0,\n");
  std::fprintf(json, "  \"gate_percent\": 5.0\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("# wrote BENCH_obs.json\n");

  return overhead_percent < 5.0 ? 0 : 2;
}
