#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace vdc::util {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      (void)pool.submit([&done] { done.fetch_add(1); return 0; });
    }
  }  // destructor joins after draining
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, SingleIterationRunsOnTheCallersThread) {
  // One iteration needs no helper, whatever the thread count asks for —
  // including the default (0 = hardware concurrency).
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    std::thread::id ran_on;
    int calls = 0;
    parallel_for(1, [&](std::size_t i) {
      EXPECT_EQ(i, 0u);
      ran_on = std::this_thread::get_id();
      ++calls;
    }, threads);
    EXPECT_EQ(calls, 1) << "threads " << threads;
    EXPECT_EQ(ran_on, std::this_thread::get_id()) << "threads " << threads;
  }
}

TEST(ParallelFor, RethrowsBodyException) {
  EXPECT_THROW(
      parallel_for(16, [](std::size_t i) {
        if (i == 7) throw std::logic_error("bad index");
      }, 4),
      std::logic_error);
}

TEST(ParallelFor, ParallelSumMatchesSerial) {
  std::vector<double> values(10000);
  std::iota(values.begin(), values.end(), 0.0);
  std::atomic<long long> sum{0};
  parallel_for(values.size(),
               [&](std::size_t i) { sum.fetch_add(static_cast<long long>(values[i])); }, 6);
  EXPECT_EQ(sum.load(), 10000LL * 9999LL / 2LL);
}

TEST(ThreadPool, SharedPoolIsAProcessWideSingleton) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
  EXPECT_EQ(a.submit([] { return 17; }).get(), 17);
}

TEST(ParallelFor, RepeatedCallsReuseTheSharedPool) {
  // parallel_for no longer spawns threads per call; hammering it must not
  // exhaust anything and must stay correct across many small invocations.
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    parallel_for(32, [&](std::size_t) { count.fetch_add(1); }, 4);
    ASSERT_EQ(count.load(), 32);
  }
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  // An inner parallel_for runs while every pool worker may already be busy
  // with the outer one. The caller-participates design guarantees progress
  // even with zero free workers.
  std::atomic<int> inner_total{0};
  parallel_for(8, [&](std::size_t) {
    parallel_for(16, [&](std::size_t) { inner_total.fetch_add(1); }, 4);
  }, 8);
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ParallelFor, ManyMoreIterationsThanWorkers) {
  std::vector<std::atomic<int>> hits(5000);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace vdc::util
