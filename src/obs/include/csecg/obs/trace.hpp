// Stage timing and structured pipeline tracing.  obs::TraceScope is the
// one way to time a stage: it feeds an optional histogram (always) and the
// trace (while armed) from one pair of clock reads.  The trace is a set of
// per-thread fixed-capacity event buffers behind a process-wide gate,
// exported as Chrome trace-event JSON that loads directly in Perfetto /
// chrome://tracing.
//
// Design constraints (see DESIGN.md "Observability"):
//  * The disabled hot path stays allocation-free: a scope with tracing off
//    costs one out-of-line trace_enabled() load and one stop() call, and
//    no buffer exists until a thread records its first event while
//    tracing is on.
//  * Recording is lock-free: each thread owns one append-only buffer of
//    preallocated slots; the writer publishes with a release store of its
//    event count and the exporter reads it back with an acquire load, so
//    no event slot is ever touched by two threads without ordering.
//  * Buffers are bounded (kTraceCapacity events per thread).  A full
//    buffer drops new events and bumps the `trace.dropped_events` counter
//    rather than blocking or reallocating.
//
// Gating: tracing starts disabled unless the CSECG_TRACE environment
// variable is truthy ("1", "on", anything but ""/"0"/"false"/"off"), and
// can be toggled at runtime with set_trace_enabled().
//
// Event names and categories must be string literals (or otherwise outlive
// the trace): slots store the pointers, never copies.
#pragma once

#include <cstdint>
#include <string>

#include "csecg/obs/registry.hpp"

namespace csecg::obs {

/// One trace event in a thread's buffer.  POD so slots preallocate.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  const char* arg_name = nullptr;  ///< nullptr = no argument.
  std::uint64_t ts_ns = 0;         ///< Start (complete) / instant time.
  std::uint64_t dur_ns = 0;        ///< Duration; 0 for instants.
  std::uint64_t arg = 0;           ///< Meaningful iff arg_name != nullptr.
  char phase = 'X';                ///< 'X' complete, 'i' instant.
};

/// True while tracing is armed.  Seeded from CSECG_TRACE on first query.
bool trace_enabled() noexcept;

/// Arms/disarms tracing process-wide.
void set_trace_enabled(bool on) noexcept;

/// Per-thread buffer capacity in events.
inline constexpr std::size_t kTraceCapacity = 65536;

/// Records an instant ('i') event stamped now.
void trace_instant(const char* name, const char* category,
                   const char* arg_name = nullptr,
                   std::uint64_t arg = 0) noexcept;

/// Events currently held across every thread buffer.
std::size_t trace_event_count();

/// Serializes every buffered event as Chrome trace-event JSON:
///   {"displayTimeUnit":"ms","traceEvents":[{"name":...,"cat":...,
///    "ph":"X","pid":1,"tid":t,"ts":us,"dur":us,"args":{...}},...]}
/// Timestamps are microseconds (the format's unit).  Buffers are emitted
/// in thread-registration order, events in record order.
std::string trace_json();

/// Empties every buffer (capacity is kept).  Scrape-side, like
/// Histogram::reset: events being recorded concurrently may survive.
void trace_reset();

/// Times a stage.  The duration goes to `histogram` when one is given
/// (always) and to the trace as one complete ('X') event while tracing is
/// armed at construction; both sinks get the same clock reads.  With no
/// histogram and tracing off it reads no clock and records nothing.
///
///   Frame Encoder::encode(...) const {
///     static obs::Histogram& h = obs::histogram("encode.window_ns");
///     obs::TraceScope scope("encode", "core", &h);
///     ...
///   }  // recorded on scope exit
///
/// An optional u64 argument can be named at construction and filled in
/// later (e.g. an iteration count known only at the end of the scope).
class TraceScope {
 public:
  explicit TraceScope(const char* name, const char* category,
                      Histogram* histogram = nullptr,
                      const char* arg_name = nullptr,
                      std::uint64_t arg = 0) noexcept
      : name_(trace_enabled() ? name : nullptr),
        category_(category),
        histogram_(histogram),
        arg_name_(arg_name),
        arg_(arg),
        start_ns_(name_ != nullptr || histogram_ != nullptr ? monotonic_ns()
                                                            : 0) {}

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  ~TraceScope() { stop(); }

  /// Updates the argument value emitted with the event.
  void set_arg(std::uint64_t value) noexcept { arg_ = value; }

  /// Records now and disarms the destructor.
  void stop() noexcept;

 private:
  const char* name_;  ///< nullptr = not tracing.
  const char* category_;
  Histogram* histogram_;
  const char* arg_name_;
  std::uint64_t arg_;
  std::uint64_t start_ns_;
};

}  // namespace csecg::obs
