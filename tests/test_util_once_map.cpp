#include "util/once_map.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace tv::util {
namespace {

constexpr int kGetters = 8;

/// Runs `body(i)` on kGetters threads released together, so the getters
/// race for the same entry instead of arriving one after another.
template <typename Body>
void race(Body body) {
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kGetters);
  for (int i = 0; i < kGetters; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kGetters) std::this_thread::yield();
      body(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(OnceMap, OneBuildUnderConcurrentGetters) {
  OnceMap<int, std::string> map;
  std::atomic<int> builds{0};
  std::vector<const std::string*> got(kGetters, nullptr);
  race([&](int i) {
    got[static_cast<std::size_t>(i)] = &map.get(7, [&] {
      builds.fetch_add(1);
      // Hold the build open so the other getters find it in flight.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return std::string{"seven"};
    });
  });
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(map.size(), 1u);
  for (const std::string* v : got) {
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v, got[0]);  // one stored value, shared by reference.
    EXPECT_EQ(*v, "seven");
  }
}

TEST(OnceMap, DistinctKeysGetDistinctBuilds) {
  OnceMap<int, int> map;
  std::atomic<int> builds{0};
  race([&](int i) {
    const int key = i % 2;
    EXPECT_EQ(map.get(key,
                      [&] {
                        builds.fetch_add(1);
                        return 100 + key;
                      }),
              100 + key);
  });
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(map.size(), 2u);
  // A later get is a hit: the builder is not called again.
  EXPECT_EQ(map.get(1, [] { return -1; }), 101);
  EXPECT_EQ(map.size(), 2u);
}

TEST(OnceMap, BuildFailureReachesEveryWaiter) {
  OnceMap<int, int> map;
  std::atomic<int> builds{0};
  std::atomic<int> caught{0};
  race([&](int) {
    try {
      (void)map.get(3, [&]() -> int {
        builds.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::runtime_error{"build failed"};
      });
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "build failed");
      caught.fetch_add(1);
    }
  });
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(caught.load(), kGetters);
  // The failure is memoized too: a later caller rethrows, never rebuilds.
  EXPECT_THROW((void)map.get(3, [] { return 0; }), std::runtime_error);
  EXPECT_EQ(builds.load(), 1);
}

}  // namespace
}  // namespace tv::util
