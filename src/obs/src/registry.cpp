#include "csecg/obs/registry.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>

#include "csecg/obs/json.hpp"

namespace csecg::obs {

std::uint64_t monotonic_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Histogram.

void Histogram::record(std::uint64_t value) noexcept {
  const std::size_t bucket =
      value == 0 ? 0
                 : std::min<std::size_t>(std::bit_width(value), kBuckets - 1);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t prev = max_.load(std::memory_order_relaxed);
  while (value > prev &&
         !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  for (std::size_t b = 0; b < kBuckets; ++b) {
    snap.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return snap;
}

void Histogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

std::uint64_t Histogram::Snapshot::quantile(double q) const noexcept {
  if (count == 0) return 0;
  q = std::min(std::max(q, 0.0), 1.0);
  auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(count) + 0.5);
  // Any positive q must cover at least one sample, else a single-sample
  // snapshot reports 0 for every small quantile.
  if (q > 0.0 && target == 0) target = 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets[b];
    if (seen >= target) {
      // Upper edge of bucket b, clamped by the true maximum.
      const std::uint64_t edge =
          b == 0 ? 0
                 : (b >= 63 ? max : (std::uint64_t{1} << b) - 1);
      return std::min(edge, max);
    }
  }
  return max;
}

// ---------------------------------------------------------------------------
// Registry.

namespace {

/// Find-or-create in a node-based map keyed by metric name.
template <typename Metric>
Metric& find_or_create(std::map<std::string, Metric, std::less<>>& metrics,
                       std::string_view name) {
  auto it = metrics.find(name);
  if (it == metrics.end()) {
    it = metrics
             .emplace(std::piecewise_construct, std::forward_as_tuple(name),
                      std::forward_as_tuple())
             .first;
  }
  return it->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(counters_, name);
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(histograms_, name);
}

std::string Registry::snapshot_json() const {
  // Built with the locale-independent helpers in obs/json.hpp: the printf
  // family follows LC_NUMERIC (a comma-decimal locale renders 2.5 as
  // "2,5") and iostreams follow the imbued std::locale (digit grouping),
  // either of which would emit invalid JSON.
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_json_u64(out, value.value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) out += ',';
    first = false;
    const Histogram::Snapshot snap = hist.snapshot();
    append_json_string(out, name);
    out += ":{\"count\":";
    append_json_u64(out, snap.count);
    out += ",\"sum\":";
    append_json_u64(out, snap.sum);
    out += ",\"max\":";
    append_json_u64(out, snap.max);
    out += ",\"mean\":";
    append_json_double(out, snap.mean());
    out += ",\"p50\":";
    append_json_u64(out, snap.quantile(0.5));
    out += ",\"p90\":";
    append_json_u64(out, snap.quantile(0.9));
    out += ",\"p99\":";
    append_json_u64(out, snap.quantile(0.99));
    out += '}';
  }
  out += "}}";
  return out;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, value] : counters_) value.reset();
  for (auto& [name, hist] : histograms_) hist.reset();
}

Registry& Registry::global() {
  // Intentionally leaked: instrumented code may run during static
  // destruction (worker threads draining, pool teardown), so the global
  // registry must outlive every other static.
  static Registry* registry = new Registry();
  return *registry;
}

Counter& counter(std::string_view name) {
  return Registry::global().counter(name);
}

Histogram& histogram(std::string_view name) {
  return Registry::global().histogram(name);
}

std::string snapshot_json() { return Registry::global().snapshot_json(); }

void reset() { Registry::global().reset(); }

}  // namespace csecg::obs
