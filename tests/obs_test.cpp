// Tests for csecg::obs — counter/histogram semantics, histogram records
// from many threads at once, stage spans, and the structure of the JSON
// snapshot the experiment binaries export.
#include <gtest/gtest.h>

#include <atomic>
#include <clocale>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"
#include "csecg/parallel/thread_pool.hpp"

namespace csecg::obs {
namespace {

// Each test works on a private Registry so it cannot race the global one
// (instrumented library code writes there from other tests' pool threads).

TEST(ObsCounter, AddAndReset) {
  Registry reg;
  Counter& c = reg.counter("test.events");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, LookupIsFindOrCreateWithStableReferences) {
  Registry reg;
  Counter& a = reg.counter("same.name");
  a.add(7);
  // Interleave other registrations; node-based storage must not move `a`.
  for (int i = 0; i < 100; ++i) {
    reg.counter("other." + std::to_string(i)).add();
  }
  Counter& b = reg.counter("same.name");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 7u);
}

TEST(ObsHistogram, BucketsCountSumMax) {
  Registry reg;
  Histogram& h = reg.histogram("test.latency_ns");
  h.record(0);    // bucket 0
  h.record(1);    // bucket 1: [1, 2)
  h.record(3);    // bucket 2: [2, 4)
  h.record(900);  // bucket 10: [512, 1024)
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 904u);
  EXPECT_EQ(snap.max, 900u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[10], 1u);
  EXPECT_DOUBLE_EQ(snap.mean(), 904.0 / 4.0);
  // All mass sits at or below the top occupied bucket's upper edge.
  EXPECT_LE(snap.quantile(0.5), 1024u);
  EXPECT_GE(snap.quantile(0.99), 512u);
}

TEST(ObsHistogram, HugeSampleLandsInTopBucketNotUb) {
  Registry reg;
  Histogram& h = reg.histogram("test.huge_ns");
  h.record(std::numeric_limits<std::uint64_t>::max());
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.buckets[Histogram::kBuckets - 1], 1u);
}

// Every thread records into the same atomics; under the TSan job this is
// the contention test, and no sample may be lost or land in two buckets.
TEST(ObsHistogram, ConcurrentRecordsAllLand) {
  Registry reg;
  Histogram& h = reg.histogram("test.mt_ns");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(i % 1000));
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Each thread records 0..999 ten times over.
  EXPECT_EQ(snap.sum, static_cast<std::uint64_t>(kThreads) * 10 * 499500);
  EXPECT_EQ(snap.max, 999u);
  std::uint64_t bucket_total = 0;
  for (const auto b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(ObsHistogram, PoolThreadsRecordBeforeAndAfterReset) {
  // Pool workers and the caller record concurrently; a reset() between two
  // fan-outs must zero every field and leave the histogram recording.
  Registry reg;
  Histogram& h = reg.histogram("test.pool_ns");
  parallel::ThreadPool pool(4);
  pool.parallel_for(0, 256, [&h](std::size_t i) {
    h.record(static_cast<std::uint64_t>(i));
  });
  EXPECT_EQ(h.snapshot().count, 256u);
  h.reset();
  const auto cleared = h.snapshot();
  EXPECT_EQ(cleared.count, 0u);
  EXPECT_EQ(cleared.sum, 0u);
  EXPECT_EQ(cleared.max, 0u);
  pool.parallel_for(0, 256, [&h](std::size_t i) {
    h.record(static_cast<std::uint64_t>(i));
  });
  const auto refilled = h.snapshot();
  EXPECT_EQ(refilled.count, 256u);
  EXPECT_EQ(refilled.sum, 255u * 256u / 2);
  EXPECT_EQ(refilled.max, 255u);
}

// A stage span is a TraceScope given a histogram: it records once, on
// stop() or at scope exit, whether or not tracing is armed.
TEST(ObsSpan, RecordsLifetimeOnceAndStopDisarms) {
  Registry reg;
  Histogram& h = reg.histogram("span.hist_ns");
  {
    const TraceScope span("span", "test", &h);
  }
  EXPECT_EQ(h.snapshot().count, 1u);
  {
    TraceScope span("span", "test", &h);
    span.stop();
    span.stop();  // Second stop is a no-op.
    EXPECT_EQ(h.snapshot().count, 2u);
  }  // Destructor must not double-record.
  EXPECT_EQ(h.snapshot().count, 2u);
}

TEST(ObsSnapshot, JsonContainsEveryMetricWithExpectedShape) {
  Registry reg;
  reg.counter("alpha.events").add(3);
  reg.histogram("gamma.time_ns").record(100);
  const std::string json = reg.snapshot_json();
  // Top-level sections.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // Metric payloads (compact form, no whitespace).
  EXPECT_NE(json.find("\"alpha.events\":3"), std::string::npos);
  EXPECT_NE(json.find("\"gamma.time_ns\""), std::string::npos);
  for (const char* field : {"\"count\"", "\"sum\"", "\"max\"", "\"mean\"",
                            "\"p50\"", "\"p90\"", "\"p99\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // Balanced braces and no trailing comma before a closer — the cheap
  // structural sanity checks that catch most hand-rolled JSON bugs.
  int depth = 0;
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}') --depth;
    EXPECT_GE(depth, 0) << "unbalanced at byte " << i;
    if (json[i] == ',') {
      std::size_t j = i + 1;
      while (j < json.size() &&
             (json[j] == ' ' || json[j] == '\n')) {
        ++j;
      }
      ASSERT_LT(j, json.size());
      EXPECT_NE(json[j], '}') << "trailing comma at byte " << i;
    }
  }
  EXPECT_EQ(depth, 0);
}

TEST(ObsSnapshot, JsonEscapesAwkwardNames) {
  Registry reg;
  reg.counter("weird\"name\\here").add();
  const std::string json = reg.snapshot_json();
  EXPECT_NE(json.find("weird\\\"name\\\\here"), std::string::npos);
}

TEST(ObsSnapshot, ResetZeroesValuesButKeepsNames) {
  Registry reg;
  reg.counter("keep.me").add(9);
  reg.histogram("keep.hist_ns").record(50);
  reg.reset();
  const std::string json = reg.snapshot_json();
  EXPECT_NE(json.find("\"keep.me\":0"), std::string::npos);
  EXPECT_NE(json.find("\"keep.hist_ns\""), std::string::npos);
  EXPECT_EQ(reg.counter("keep.me").value(), 0u);
  EXPECT_EQ(reg.histogram("keep.hist_ns").snapshot().count, 0u);
}

TEST(ObsGlobal, FreeFunctionsHitTheGlobalRegistry) {
  Counter& c = counter("obs_test.global_counter");
  const std::uint64_t before = c.value();
  c.add(5);
  EXPECT_EQ(counter("obs_test.global_counter").value(), before + 5);
  const std::string json = snapshot_json();
  EXPECT_NE(json.find("\"obs_test.global_counter\""), std::string::npos);
}

TEST(ObsClock, MonotonicNeverGoesBackwards) {
  std::uint64_t prev = monotonic_ns();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = monotonic_ns();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

// --- Histogram::Snapshot::quantile edge cases (ISSUE 4) --------------------

TEST(ObsQuantile, EmptySnapshotIsZeroForAnyQ) {
  Registry reg;
  const auto snap = reg.histogram("q.empty_ns").snapshot();
  EXPECT_EQ(snap.quantile(0.0), 0u);
  EXPECT_EQ(snap.quantile(0.5), 0u);
  EXPECT_EQ(snap.quantile(1.0), 0u);
}

TEST(ObsQuantile, QAtOrBelowZeroClampsToZero) {
  Registry reg;
  Histogram& h = reg.histogram("q.low_ns");
  h.record(100);
  h.record(200);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.quantile(0.0), 0u);
  EXPECT_EQ(snap.quantile(-3.0), 0u);
}

TEST(ObsQuantile, QAtOrAboveOneIsExactMaximum) {
  Registry reg;
  Histogram& h = reg.histogram("q.high_ns");
  h.record(5);
  h.record(1234567);
  h.record(89);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.quantile(1.0), 1234567u);
  EXPECT_EQ(snap.quantile(7.5), 1234567u);
}

TEST(ObsQuantile, SingleSampleIsExactAtEveryInteriorQ) {
  Registry reg;
  Histogram& h = reg.histogram("q.single_ns");
  h.record(777);
  const auto snap = h.snapshot();
  for (const double q : {0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(snap.quantile(q), 777u) << "q=" << q;
  }
}

TEST(ObsQuantile, MaxBucketIsClampedByTrueMaximum) {
  Registry reg;
  Histogram& h = reg.histogram("q.clamp_ns");
  // Both land in the same log2 bucket [1024, 2048); the bucket's upper
  // edge is 2047 but the quantile must never exceed the observed max.
  h.record(1030);
  h.record(1500);
  const auto snap = h.snapshot();
  EXPECT_LE(snap.quantile(0.99), 1500u);
  EXPECT_EQ(snap.quantile(1.0), 1500u);
}

// --- Locale-independent snapshot JSON (ISSUE 4 satellite) ------------------

// %g-style formatting follows LC_NUMERIC, so under a comma-decimal locale
// the old snprintf implementation produced "2,5" — invalid JSON.  The
// std::to_chars path must be immune.  Skips when the image carries no
// comma-decimal locale (the CI job installs de_DE.UTF-8).
TEST(ObsSnapshot, JsonDoublesIgnoreCommaDecimalLocale) {
  const char* old_locale = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = old_locale != nullptr ? old_locale : "C";
  const char* comma_locale = nullptr;
  for (const char* candidate : {"de_DE.UTF-8", "de_DE.utf8", "de_DE",
                                "fr_FR.UTF-8", "fr_FR.utf8", "fr_FR"}) {
    if (std::setlocale(LC_NUMERIC, candidate) != nullptr &&
        *std::localeconv()->decimal_point == ',') {
      comma_locale = candidate;
      break;
    }
  }
  if (comma_locale == nullptr) {
    std::setlocale(LC_NUMERIC, saved.c_str());
    GTEST_SKIP() << "no comma-decimal locale installed";
  }

  Registry reg;
  Histogram& h = reg.histogram("locale.hist_ns");
  h.record(2);
  h.record(3);
  const std::string json = reg.snapshot_json();
  std::setlocale(LC_NUMERIC, saved.c_str());

  EXPECT_NE(json.find("\"mean\":2.5"), std::string::npos)
      << "under " << comma_locale << ": " << json;
  EXPECT_EQ(json.find("2,5"), std::string::npos);
}

// --- Registry::reset() vs racing record() (ISSUE 4 satellite) --------------

// The documented contract: reset() is scrape-side and racing records may
// survive it, but nothing tears, crashes, or (under -DCSECG_SANITIZE=thread,
// the build-tsan CI job) races.  After the writers join, a final reset must
// leave internally consistent, fully-zero state.
TEST(ObsReset, RacingRecordsMaySurviveButNeverCorrupt) {
  Registry reg;
  Histogram& h = reg.histogram("reset.race_ns");
  Counter& c = reg.counter("reset.race_count");
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&h, &c, &stop] {
      std::uint64_t v = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        h.record(v);
        c.add();
        v = v * 2654435761u + 1;  // Vary the bucket hit.
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    reg.reset();
    // A mid-race snapshot may see count, sum and buckets out of step with
    // each other (they are independent relaxed atomics being zeroed under
    // fire) — the contract only demands no tears and no data races, which
    // is what the TSan job checks here.
    (void)h.snapshot();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();

  // Quiescent again: reset must now leave fully consistent zero state.
  reg.reset();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.max, 0u);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 0u);
  EXPECT_EQ(c.value(), 0u);
}

}  // namespace
}  // namespace csecg::obs
