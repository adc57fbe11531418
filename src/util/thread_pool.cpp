#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace vdc::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

ThreadPool& ThreadPool::shared() {
  // Construction is thread-safe (magic static); the pool is intentionally
  // leaked rather than destroyed at static teardown. Joining the workers
  // from a static destructor raced late helpers submitted by other statics'
  // destructors (a `submit` after `stopping_` throws into code that never
  // expected it) — and a leaked pool stays reachable through this pointer,
  // so leak checkers are clean.
  static ThreadPool* pool = new ThreadPool;
  return *pool;
}

namespace {

/// Shared between the parallel_for caller and its pool helpers. Helpers hold
/// the state (and a copy of the body) via shared_ptr, so one that is dequeued
/// long after the call returned finds `next >= n`, touches nothing else, and
/// exits — the caller never has to wait for helpers that were never needed.
struct ParallelForState {
  std::function<void(std::size_t)> body;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::exception_ptr error;  // first exception thrown by body; guarded by mutex

  void drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        // Last iteration finished; the caller may be asleep in wait().
        const std::lock_guard<std::mutex> lock(mutex);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t threads) {
  if (n == 0) return;
  if (n == 1) {
    // One iteration never needs a helper; deciding so before resolving
    // threads == 0 keeps hardware_concurrency() off the per-call path.
    body(0);
    return;
  }
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, n);
  if (threads == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto state = std::make_shared<ParallelForState>();
  state->body = body;
  state->n = n;

  // The caller participates, so only threads - 1 helpers are requested. The
  // pool may be saturated (including by an enclosing parallel_for) — that
  // only costs parallelism, never progress, because every iteration left
  // unclaimed by helpers is claimed by the caller's own drain().
  for (std::size_t t = 0; t + 1 < threads; ++t) {
    ThreadPool::shared().submit([state] { state->drain(); });
  }
  state->drain();

  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock, [&] { return state->done.load(std::memory_order_acquire) == n; });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace vdc::util
