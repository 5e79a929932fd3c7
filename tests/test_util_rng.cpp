#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>

namespace tv::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a{42};
  const auto first = a();
  a.reseed(42);
  EXPECT_EQ(a(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    sum_sq += u * u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
  EXPECT_NEAR(sum_sq / kN - 0.25, 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng{9};
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    ASSERT_GE(x, -3.0);
    ASSERT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntIsUnbiasedOverSmallRange) {
  Rng rng{11};
  constexpr std::uint64_t kRange = 7;
  std::array<int, kRange> counts{};
  constexpr int kN = 140000;
  for (int i = 0; i < kN; ++i) {
    counts[rng.uniform_int(kRange)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kN / 7.0, kN / 7.0 * 0.05);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng{13};
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / kN, 0.25, 0.005);
}

TEST(Rng, GaussianMomentsMatch) {
  Rng rng{17};
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.gaussian(2.0, 3.0);
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng{23};
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(kN), 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent{31};
  Rng child = parent.fork();
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    seen.insert(parent());
    seen.insert(child());
  }
  EXPECT_EQ(seen.size(), 200u);
}

}  // namespace
}  // namespace tv::util
