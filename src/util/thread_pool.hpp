// Fixed-size thread pool used to parallelize independent simulations
// (figure-6 sweeps over 54 data centers, parameter studies). Each simulation
// is single-threaded and deterministic; the pool only distributes whole jobs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace vdc::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Process-wide pool (hardware-concurrency workers), created on first use
  /// (thread-safe) and intentionally leaked: it must outlive every static
  /// whose destructor might still run a `parallel_for`, and a leaked pool
  /// stays reachable so leak checkers don't report it. `parallel_for` draws
  /// its helpers from here instead of spawning and joining fresh threads on
  /// every call, which dominated the cost of short sweeps.
  [[nodiscard]] static ThreadPool& shared();

  /// Enqueues a task; the returned future delivers its result or exception.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged = std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> result = packaged->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
      tasks_.push([packaged]() { (*packaged)(); });
    }
    cv_.notify_one();
    return result;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Runs body(i) for i in [0, n) and waits for all iterations. Work is
/// claimed dynamically from a shared atomic counter by the caller plus up to
/// `threads - 1` helpers borrowed from `ThreadPool::shared()` — no threads
/// are created or joined per call. Because the caller itself drains the
/// counter, the call makes progress (and nested `parallel_for` inside `body`
/// cannot deadlock) even when every pool worker is busy. Exceptions from the
/// body are rethrown (the first one encountered). `threads == 0` means
/// hardware concurrency. A single iteration (n == 1) runs inline on the
/// caller's thread.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

}  // namespace vdc::util
