// Tracing overhead tracker.
//
// Three interleaved arms over the run_database workload:
//
//   dark     obs off, trace off — the floor.
//   default  obs on (the shipping default), trace off.  The gated
//            number is this arm's cost over `dark`: the tracing hooks sit
//            on the encode/decode/solver hot paths even when disarmed, so
//            this catches a disabled-path regression (a branch that became
//            an allocation, say).  Bar < 2%, CI gate 5%.
//   tracing  obs + trace on — the cost of actually recording a timeline.
//            Reported for the record, not gated: rings fill and the arm
//            pays for JSON-able strings.
//
// Results land in BENCH_trace.json.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"
#include "csecg/parallel/thread_pool.hpp"

namespace {

using namespace csecg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void arm(bool obs_on, bool trace_on) {
  obs::set_enabled(obs_on);
  obs::set_trace_enabled(trace_on);
  // Start each rep from an empty ring: a full ring silently stops costing
  // anything, which would flatter the tracing arm.
  obs::trace_reset();
}

}  // namespace

int main() {
  const auto& database = bench::shared_database();
  core::FrontEndConfig config;
  const auto lowres_codec = core::train_lowres_codec(config, database, 3, 3);
  const core::Codec codec(config, lowres_codec);

  const std::size_t records = std::min<std::size_t>(bench::records_budget(), 8);
  const std::size_t windows = std::max<std::size_t>(bench::windows_budget(), 2);
  bench::print_header("bench_trace_overhead", "tracing throughput cost",
                      records, windows);
  const std::size_t total_windows = records * windows;
  parallel::ThreadPool pool(1);  // Serial: per-window cost is not hidden
                                 // behind thread scheduling noise.

  for (std::size_t r = 0; r < records; ++r) (void)database.record(r);
  arm(true, false);
  (void)core::run_database(codec, database, records, windows,
                           core::DecodeMode::kAuto, pool);

  constexpr int kReps = 9;
  double dark_best = 1e300;
  double default_best = 1e300;
  double tracing_best = 1e300;
  // Machine-load drift across ~second-scale reps dwarfs a 2% effect.
  // Load only ever adds time, so best-of-reps approximates each arm's
  // unloaded floor and the best-of ratio is the real overhead — the same
  // estimator bench_obs_overhead uses, with more reps because this bench
  // compares three arms.
  std::printf("arm,rep,seconds,windows_per_sec\n");
  for (int rep = 0; rep < kReps; ++rep) {
    arm(false, false);
    auto start = Clock::now();
    (void)core::run_database(codec, database, records, windows,
                             core::DecodeMode::kAuto, pool);
    const double dark_seconds = seconds_since(start);
    dark_best = std::min(dark_best, dark_seconds);
    std::printf("dark,%d,%.4f,%.2f\n", rep, dark_seconds,
                static_cast<double>(total_windows) / dark_seconds);

    arm(true, false);
    start = Clock::now();
    (void)core::run_database(codec, database, records, windows,
                             core::DecodeMode::kAuto, pool);
    const double default_seconds = seconds_since(start);
    default_best = std::min(default_best, default_seconds);
    std::printf("default,%d,%.4f,%.2f\n", rep, default_seconds,
                static_cast<double>(total_windows) / default_seconds);

    arm(true, true);
    start = Clock::now();
    (void)core::run_database(codec, database, records, windows,
                             core::DecodeMode::kAuto, pool);
    const double tracing_seconds = seconds_since(start);
    tracing_best = std::min(tracing_best, tracing_seconds);
    std::printf("tracing,%d,%.4f,%.2f\n", rep, tracing_seconds,
                static_cast<double>(total_windows) / tracing_seconds);
  }
  arm(true, false);  // Leave the process in the shipping default.

  const double dark_wps = static_cast<double>(total_windows) / dark_best;
  const double default_wps = static_cast<double>(total_windows) / default_best;
  const double tracing_wps = static_cast<double>(total_windows) / tracing_best;
  const double default_overhead = (default_best / dark_best - 1.0) * 100.0;
  const double tracing_overhead = (tracing_best / dark_best - 1.0) * 100.0;
  std::printf("# dark:    %.2f windows/s\n", dark_wps);
  std::printf("# default: %.2f windows/s (%.2f%% over dark; "
              "target < 2%%, CI gate 5%%)\n",
              default_wps, default_overhead);
  std::printf("# tracing: %.2f windows/s (%.2f%% over dark; informational)\n",
              tracing_wps, tracing_overhead);

  std::FILE* json = std::fopen("BENCH_trace.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_trace.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"trace_overhead\",\n");
  std::fprintf(json,
               "  \"workload\": {\"records\": %zu, \"windows_per_record\": "
               "%zu, \"window\": %zu, \"measurements\": %zu, \"reps\": %d},\n",
               records, windows, config.window, config.measurements, kReps);
  std::fprintf(json,
               "  \"dark\": {\"best_seconds\": %.4f, "
               "\"windows_per_sec\": %.3f},\n",
               dark_best, dark_wps);
  std::fprintf(json,
               "  \"default\": {\"best_seconds\": %.4f, "
               "\"windows_per_sec\": %.3f},\n",
               default_best, default_wps);
  std::fprintf(json,
               "  \"tracing\": {\"best_seconds\": %.4f, "
               "\"windows_per_sec\": %.3f},\n",
               tracing_best, tracing_wps);
  std::fprintf(json, "  \"overhead_percent\": %.3f,\n", default_overhead);
  std::fprintf(json, "  \"tracing_overhead_percent\": %.3f,\n",
               tracing_overhead);
  std::fprintf(json, "  \"target_percent\": 2.0,\n");
  std::fprintf(json, "  \"gate_percent\": 5.0\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("# wrote BENCH_trace.json\n");

  return default_overhead < 5.0 ? 0 : 2;
}
