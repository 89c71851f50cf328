#include "csecg/obs/trace.hpp"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "csecg/obs/json.hpp"

namespace csecg::obs {
namespace {

bool env_truthy(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return false;
  const std::string_view value(env);
  return !(value.empty() || value == "0" || value == "false" ||
           value == "off");
}

std::atomic<bool>& trace_flag() {
  static std::atomic<bool> flag{env_truthy("CSECG_TRACE")};
  return flag;
}

/// One thread's append-only event buffer.  Single writer (the owning
/// thread); the exporter synchronizes through the release/acquire pair on
/// `size`, so the plain event slots are never racily shared.
struct ThreadTrace {
  explicit ThreadTrace(std::uint32_t tid_)
      : tid(tid_), events(kTraceCapacity) {}
  const std::uint32_t tid;
  std::atomic<std::size_t> size{0};
  std::vector<TraceEvent> events;
};

struct TraceState {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadTrace>> buffers;
  std::uint32_t next_tid = 0;
};

TraceState& state() {
  // Intentionally leaked, like Registry::global(): pool workers may still
  // emit events while statics are being destroyed.
  static TraceState* s = new TraceState();
  return *s;
}

thread_local ThreadTrace* t_trace = nullptr;

ThreadTrace& local_trace() {
  if (t_trace != nullptr) return *t_trace;
  TraceState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.buffers.push_back(std::make_unique<ThreadTrace>(s.next_tid++));
  t_trace = s.buffers.back().get();
  return *t_trace;
}

void push_event(const TraceEvent& event) noexcept {
  ThreadTrace& buffer = local_trace();
  const std::size_t index = buffer.size.load(std::memory_order_relaxed);
  if (index >= buffer.events.size()) {
    static Counter& dropped = counter("trace.dropped_events");
    dropped.add();
    return;
  }
  buffer.events[index] = event;
  buffer.size.store(index + 1, std::memory_order_release);
}

}  // namespace

bool trace_enabled() noexcept {
  return trace_flag().load(std::memory_order_relaxed);
}

void set_trace_enabled(bool on) noexcept {
  trace_flag().store(on, std::memory_order_relaxed);
}

void TraceScope::stop() noexcept {
  if (name_ == nullptr && histogram_ == nullptr) return;
  const std::uint64_t dur_ns = monotonic_ns() - start_ns_;
  if (histogram_ != nullptr) histogram_->record(dur_ns);
  if (name_ != nullptr) {
    push_event({name_, category_, arg_name_, start_ns_, dur_ns, arg_, 'X'});
  }
  name_ = nullptr;
  histogram_ = nullptr;
}

void trace_instant(const char* name, const char* category,
                   const char* arg_name, std::uint64_t arg) noexcept {
  if (!trace_enabled()) return;
  push_event({name, category, arg_name, monotonic_ns(), 0, arg, 'i'});
}

std::size_t trace_event_count() {
  TraceState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  std::size_t total = 0;
  for (const auto& buffer : s.buffers) {
    total += buffer->size.load(std::memory_order_acquire);
  }
  return total;
}

std::string trace_json() {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  TraceState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  bool first = true;
  for (const auto& buffer : s.buffers) {
    const std::size_t count = buffer->size.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
      const TraceEvent& event = buffer->events[i];
      if (!first) out += ',';
      first = false;
      out += "{\"name\":";
      append_json_string(out, event.name);
      out += ",\"cat\":";
      append_json_string(out, event.category);
      out += ",\"ph\":\"";
      out += event.phase;
      out += "\",\"pid\":1,\"tid\":";
      append_json_u64(out, buffer->tid);
      out += ",\"ts\":";
      append_json_double(out, static_cast<double>(event.ts_ns) / 1000.0);
      if (event.phase == 'X') {
        out += ",\"dur\":";
        append_json_double(out, static_cast<double>(event.dur_ns) / 1000.0);
      } else {
        out += ",\"s\":\"t\"";  // Instant scope: this thread.
      }
      if (event.arg_name != nullptr) {
        out += ",\"args\":{";
        append_json_string(out, event.arg_name);
        out += ':';
        append_json_u64(out, event.arg);
        out += '}';
      }
      out += '}';
    }
  }
  out += "]}";
  return out;
}

void trace_reset() {
  TraceState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (const auto& buffer : s.buffers) {
    buffer->size.store(0, std::memory_order_relaxed);
  }
}

}  // namespace csecg::obs
