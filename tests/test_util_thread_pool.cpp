#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace tv::util {
namespace {

TEST(ThreadPool, DefaultThreadCountIsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool{4};
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool{2};
  auto future = pool.submit(
      []() -> int { throw std::runtime_error{"boom"}; });
  EXPECT_THROW((void)future.get(), std::runtime_error);
}

TEST(ThreadPool, ManySubmissionsAllRun) {
  ThreadPool pool{4};
  constexpr int kTasks = 200;
  std::vector<std::future<int>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit([i] { return i; }));
  }
  long long sum = 0;
  for (auto& f : futures) sum += f.get();
  EXPECT_EQ(sum, static_cast<long long>(kTasks) * (kTasks - 1) / 2);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool{4};
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool{4};
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 17) {
                                     throw std::runtime_error{"bad index"};
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool{2};  // fewer workers than outer iterations.
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool{1};
    // A slow head task backs up the queue so later tasks are still queued
    // when the destructor runs; all of them must still execute.
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&ran] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, RunPendingTaskFromOutside) {
  ThreadPool pool{1};
  // Block the lone worker so a queued task is guaranteed pending, then
  // help from this thread.  Wait until the worker has *started* the
  // blocker before queueing — otherwise the helper below could pop the
  // blocker itself and spin on `release` forever.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto blocker = pool.submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  std::atomic<bool> ran{false};
  auto queued = pool.submit([&] { ran.store(true); });
  while (!ran.load()) {
    if (!pool.run_pending_task()) std::this_thread::yield();
  }
  release.store(true);
  blocker.get();
  queued.get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, OrderedParallelMapConsumesInIndexOrder) {
  // Early indices finish last, so results complete out of order; the
  // consumer must still see 0, 1, 2, ... with or without a pool.
  constexpr std::size_t n = 16;
  auto produce = [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds(200 * (n - i)));
    return i * i;
  };
  ThreadPool pool{4};
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<std::size_t> seen;
    ordered_parallel_map(p, n, produce,
                         [&](std::size_t v) { seen.push_back(v); });
    ASSERT_EQ(seen.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], i * i);
  }
}

}  // namespace
}  // namespace tv::util
