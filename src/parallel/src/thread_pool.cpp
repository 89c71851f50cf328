#include "csecg/parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>

#include "csecg/common/check.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"

namespace csecg::parallel {

namespace {

/// True on threads currently executing a pool chunk; nested parallel_for
/// calls from such threads run inline instead of re-entering the queue.
thread_local bool t_in_pool_chunk = false;

}  // namespace

std::size_t parse_thread_count(const char* text) {
  CSECG_CHECK(text != nullptr, "thread count: null string");
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text, &end, 10);
  // The seed passed a null endptr here, so "garbage" and "0" silently fell
  // through to hardware_concurrency — benchmark runs could report numbers
  // for a thread count nobody asked for.
  CSECG_CHECK(end != text && *end == '\0',
              "CSECG_THREADS: malformed value '"
                  << text << "' (expected a positive decimal integer)");
  CSECG_CHECK(errno != ERANGE,
              "CSECG_THREADS: value out of range: '" << text << "'");
  CSECG_CHECK(parsed >= 1,
              "CSECG_THREADS: must be >= 1, got '" << text << "'");
  return static_cast<std::size_t>(parsed);
}

std::size_t default_thread_count() {
  if (const char* env = std::getenv("CSECG_THREADS")) {
    return parse_thread_count(env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(std::size_t threads)
    : thread_count_(threads > 0 ? threads : default_thread_count()) {
  workers_.reserve(thread_count_ - 1);
  for (std::size_t t = 0; t + 1 < thread_count_; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    t_in_pool_chunk = true;
    task();
    t_in_pool_chunk = false;
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const std::size_t chunks =
      t_in_pool_chunk ? 1 : std::min(thread_count_, count);
  if (chunks <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // Static chunking: chunk c covers a contiguous slice; the first
  // `remainder` chunks get one extra element.
  const std::size_t base = count / chunks;
  const std::size_t remainder = count % chunks;
  struct Shared {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t pending = 0;
    std::exception_ptr first_error;
    std::size_t first_error_chunk = 0;
  } shared;
  shared.pending = chunks - 1;

  static obs::Histogram& run_hist = obs::histogram("pool.chunk_run_ns");
  static obs::Histogram& wait_hist = obs::histogram("pool.queue_wait_ns");

  auto run_chunk = [&fn, &shared](std::size_t chunk, std::size_t lo,
                                  std::size_t hi) {
    try {
      const obs::TraceScope chunk_scope("pool.chunk", "pool", &run_hist,
                                        "chunk", chunk);
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(shared.mutex);
      if (!shared.first_error || chunk < shared.first_error_chunk) {
        shared.first_error = std::current_exception();
        shared.first_error_chunk = chunk;
      }
    }
  };

  std::size_t next = begin;
  std::vector<std::pair<std::size_t, std::size_t>> spans(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t len = base + (c < remainder ? 1 : 0);
    spans[c] = {next, next + len};
    next += len;
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t enqueue_ns = obs::monotonic_ns();
    for (std::size_t c = 1; c < chunks; ++c) {
      queue_.emplace_back([&run_chunk, &shared, c, spans, enqueue_ns] {
        // Time spent parked in the queue before a worker picked this
        // chunk up — the fan-out latency the runner pays per window.
        wait_hist.record(obs::monotonic_ns() - enqueue_ns);
        run_chunk(c, spans[c].first, spans[c].second);
        // Notify under the lock: once pending hits 0 the caller may
        // destroy `shared`, so the worker must be done touching it
        // before the caller can observe the count.
        const std::lock_guard<std::mutex> done_lock(shared.mutex);
        --shared.pending;
        shared.done.notify_one();
      });
    }
  }
  wake_.notify_all();

  // The caller is participant 0.
  const bool was_in_chunk = t_in_pool_chunk;
  t_in_pool_chunk = true;
  run_chunk(0, spans[0].first, spans[0].second);
  t_in_pool_chunk = was_in_chunk;

  {
    std::unique_lock<std::mutex> lock(shared.mutex);
    shared.done.wait(lock, [&shared] { return shared.pending == 0; });
    if (shared.first_error) std::rethrow_exception(shared.first_error);
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace csecg::parallel
