// Lightweight observability: named atomic counters and log2 histograms,
// scraped into a structured JSON snapshot.
//
// Design constraints (see DESIGN.md "Observability"):
//  * The hot path stays allocation-free.  Counter::add and
//    Histogram::record are relaxed atomic writes; the only lock is taken
//    at registration time (first use of a name) and at scrape time.
//  * Instrumented code caches references: `static obs::Counter& c =
//    obs::counter("solver.pdhg.solves");` — the name lookup happens once.
//  * Counters and histograms always record.  Stages are timed into
//    histograms through obs::TraceScope (trace.hpp), a few samples per
//    decoded window, so one shared set of atomics per histogram is cheap.
//
// Naming scheme: dotted lower_snake paths `<module>.<unit>.<event>`, e.g.
// `solver.pdhg.non_converged`, `quantizer.clamped_high`,
// `pool.queue_wait_ns`.  Histograms of durations end in `_ns`.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace csecg::obs {

/// Monotonic wall clock in nanoseconds (steady_clock).
std::uint64_t monotonic_ns() noexcept;

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Log2-bucketed histogram of non-negative integer samples (typically
/// durations in nanoseconds).  record() is lock-free and allocation-free:
/// relaxed atomic adds into one set of buckets shared by every thread.
class Histogram {
 public:
  /// Bucket b counts samples in [2^(b-1), 2^b); bucket 0 counts zeros.
  static constexpr std::size_t kBuckets = 64;

  /// Records one sample.
  void record(std::uint64_t value) noexcept;

  /// A copy of the current state.
  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    double mean() const noexcept {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
    /// Upper bucket edge below which at least `quantile` of the mass lies
    /// (bucket-resolution approximation, exact for the max bucket).
    std::uint64_t quantile(double q) const noexcept;
  };

  /// Each field is read atomically, but a snapshot taken while other
  /// threads record may see count, sum and buckets out of step.
  Snapshot snapshot() const noexcept;

  /// Zeroes every field (scrape-side; racing record() calls may survive).
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// A named set of counters and histograms.  Lookup is find-or-create under
/// a mutex; the returned references are stable for the registry's
/// lifetime (node-based storage), which is what lets call sites cache
/// them in function-local statics.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Serializes every metric:
  ///   {"counters": {name: n, ...},
  ///    "histograms": {name: {"count": n, "sum": s, "max": m,
  ///                          "mean": x, "p50": a, "p90": b, "p99": c}}}
  /// Keys are sorted; the output is stable given stable metric values.
  std::string snapshot_json() const;

  /// Zeroes every registered metric (names stay registered).
  void reset();

  /// The process-wide registry every instrumented module writes to.
  static Registry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Convenience accessors on the global registry.
Counter& counter(std::string_view name);
Histogram& histogram(std::string_view name);

/// Registry::global().snapshot_json().
std::string snapshot_json();

/// Registry::global().reset().
void reset();

}  // namespace csecg::obs
