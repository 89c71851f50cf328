// Observability overhead tracker.
//
// Two arms over the run_database workload, alternated pass by pass:
//
//   default  the shipping state: histograms and counters record, tracing
//            is disarmed.
//   tracing  the same with tracing armed, so every stage scope also
//            writes a trace event.
//
// A rep runs kPasses passes of each arm, interleaved with the order
// flipping every pass, and yields one overhead ratio tracing / default − 1
// over its summed times.  Machine-load bursts on a shared host mostly
// outlast a pass, so they slow both arms of a rep alike; one that does not
// moves one rep's ratio, not the median over reps.  The bench reports the
// median and interquartile range of the per-rep ratios and exits 2 when
// the median exceeds 5%; a median smaller than the IQR is inside the
// noise.
//
// Results land in BENCH_trace.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/obs/trace.hpp"
#include "csecg/parallel/thread_pool.hpp"

namespace {

using namespace csecg;
using Clock = std::chrono::steady_clock;

/// Linearly interpolated quantile of an ascending sample.
double quantile(const std::vector<double>& sorted, double q) {
  const double at = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = at - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile(values, 0.5);
}

}  // namespace

int main() {
  const auto& database = bench::shared_database();
  core::FrontEndConfig config;
  const auto lowres_codec = core::train_lowres_codec(config, database, 3, 3);
  const core::Codec codec(config, lowres_codec);

  const std::size_t records = std::min<std::size_t>(bench::records_budget(), 8);
  const std::size_t windows = std::max<std::size_t>(bench::windows_budget(), 2);
  bench::print_header("bench_trace_overhead", "observability throughput cost",
                      records, windows);
  const auto total_windows = static_cast<double>(records * windows);
  parallel::ThreadPool pool(1);  // Serial: per-window cost is not hidden
                                 // behind thread scheduling noise.

  // Times one pass with tracing armed or not.  Each pass starts from an
  // empty ring: a full ring silently stops costing anything, which would
  // flatter the tracing arm.
  const auto timed_pass = [&](bool tracing) {
    obs::set_trace_enabled(tracing);
    obs::trace_reset();
    const auto start = Clock::now();
    (void)core::run_database(codec, database, records, windows,
                             core::DecodeMode::kAuto, pool);
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  (void)timed_pass(false);  // Warm-up: records, operators, first-touch rings.
  (void)timed_pass(true);

  constexpr int kReps = 11;
  constexpr int kPasses = 4;
  std::vector<double> default_seconds;
  std::vector<double> tracing_seconds;
  std::vector<double> overhead_percent;
  std::printf("rep,default_seconds,tracing_seconds,overhead_percent\n");
  for (int rep = 0; rep < kReps; ++rep) {
    double off = 0.0;
    double on = 0.0;
    for (int pass = 0; pass < kPasses; ++pass) {
      if ((rep + pass) % 2 == 0) {
        off += timed_pass(false);
        on += timed_pass(true);
      } else {
        on += timed_pass(true);
        off += timed_pass(false);
      }
    }
    default_seconds.push_back(off / kPasses);
    tracing_seconds.push_back(on / kPasses);
    overhead_percent.push_back((on / off - 1.0) * 100.0);
    std::printf("%d,%.4f,%.4f,%.2f\n", rep, off / kPasses, on / kPasses,
                overhead_percent.back());
  }
  obs::set_trace_enabled(false);  // Leave the process in the default state.
  obs::trace_reset();

  std::sort(overhead_percent.begin(), overhead_percent.end());
  const double q1 = quantile(overhead_percent, 0.25);
  const double overhead = quantile(overhead_percent, 0.5);
  const double q3 = quantile(overhead_percent, 0.75);
  const double default_wps = total_windows / median(default_seconds);
  const double tracing_wps = total_windows / median(tracing_seconds);
  constexpr double kGatePercent = 5.0;
  std::printf("# default: %.2f windows/s (median of %d reps)\n", default_wps,
              kReps);
  std::printf("# tracing: %.2f windows/s (median of %d reps)\n", tracing_wps,
              kReps);
  std::printf("# tracing overhead: median %.2f%%, IQR %.2f%% [%.2f, %.2f] "
              "(CI gate: median < %.0f%%)\n",
              overhead, q3 - q1, q1, q3, kGatePercent);

  std::FILE* json = std::fopen("BENCH_trace.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_trace.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"trace_overhead\",\n");
  std::fprintf(json,
               "  \"workload\": {\"records\": %zu, \"windows_per_record\": "
               "%zu, \"window\": %zu, \"measurements\": %zu, \"reps\": %d, "
               "\"passes\": %d},\n",
               records, windows, config.window, config.measurements, kReps,
               kPasses);
  std::fprintf(json,
               "  \"default\": {\"median_seconds_per_pass\": %.4f, "
               "\"windows_per_sec\": %.3f},\n",
               median(default_seconds), default_wps);
  std::fprintf(json,
               "  \"tracing\": {\"median_seconds_per_pass\": %.4f, "
               "\"windows_per_sec\": %.3f},\n",
               median(tracing_seconds), tracing_wps);
  std::fprintf(json,
               "  \"overhead_percent\": {\"median\": %.3f, \"q1\": %.3f, "
               "\"q3\": %.3f, \"iqr\": %.3f},\n",
               overhead, q1, q3, q3 - q1);
  std::fprintf(json, "  \"gate_percent\": %.1f\n", kGatePercent);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("# wrote BENCH_trace.json\n");

  return overhead < kGatePercent ? 0 : 2;
}
