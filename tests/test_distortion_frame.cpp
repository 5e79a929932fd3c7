#include "distortion/frame_success.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "distortion/inter_gop.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "video/scene.hpp"

namespace tv::distortion {
namespace {

TEST(DecryptionRates, ReceiverAndEavesdropper) {
  EXPECT_DOUBLE_EQ(receiver_decryption_rate(0.97), 0.97);
  // p_d^e = (1 - q) p_s, Section 4.3.
  EXPECT_DOUBLE_EQ(eavesdropper_decryption_rate(0.4, 0.9), 0.54);
  EXPECT_DOUBLE_EQ(eavesdropper_decryption_rate(1.0, 0.9), 0.0);
  EXPECT_DOUBLE_EQ(eavesdropper_decryption_rate(0.0, 0.9), 0.9);
  EXPECT_THROW((void)eavesdropper_decryption_rate(-0.1, 0.9),
               std::invalid_argument);
}

TEST(FrameSuccess, SinglePacketFrameIsJustPd) {
  // n = 1: only the first packet matters (eq. 20 with s = 0).
  EXPECT_DOUBLE_EQ(frame_success_probability(1, 0, 0.83), 0.83);
}

TEST(FrameSuccess, ZeroSensitivityNeedsOnlyHeaderPacket) {
  EXPECT_NEAR(frame_success_probability(10, 0, 0.9), 0.9, 1e-12);
}

TEST(FrameSuccess, FullSensitivityNeedsEveryPacket) {
  const double p = 0.95;
  EXPECT_NEAR(frame_success_probability(8, 7, p), std::pow(p, 8), 1e-12);
}

TEST(FrameSuccess, MatchesExplicitBinomialSum) {
  // n = 4, s = 2: p * sum_{i>=2} C(3,i) p^i (1-p)^(3-i).
  const double p = 0.8;
  const double tail = 3.0 * p * p * (1 - p) + p * p * p;
  EXPECT_NEAR(frame_success_probability(4, 2, p), p * tail, 1e-12);
}

TEST(FrameSuccess, BoundaryDecryptionRates) {
  EXPECT_DOUBLE_EQ(frame_success_probability(12, 5, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(frame_success_probability(12, 5, 1.0), 1.0);
}

class FrameSuccessMonotone
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FrameSuccessMonotone, IncreasesWithPdDecreasesWithSensitivity) {
  const auto [n, s] = GetParam();
  double prev = -1.0;
  for (double p : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    const double v = frame_success_probability(n, s, p);
    EXPECT_GT(v, prev);
    prev = v;
  }
  if (s + 1 <= n - 1) {
    EXPECT_GE(frame_success_probability(n, s, 0.8),
              frame_success_probability(n, s + 1, 0.8));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FrameSuccessMonotone,
                         ::testing::Values(std::pair{2, 1}, std::pair{5, 2},
                                           std::pair{18, 9}, std::pair{18, 17},
                                           std::pair{40, 10}));

TEST(FrameSuccess, AgreesWithMonteCarlo) {
  util::Rng rng{31};
  const int n = 12;
  const int s = 7;
  const double p = 0.85;
  int ok = 0;
  constexpr int kTrials = 200000;
  for (int t = 0; t < kTrials; ++t) {
    if (!rng.bernoulli(p)) continue;  // first packet.
    int usable = 0;
    for (int i = 0; i < n - 1; ++i) usable += rng.bernoulli(p) ? 1 : 0;
    if (usable >= s) ++ok;
  }
  EXPECT_NEAR(static_cast<double>(ok) / kTrials,
              frame_success_probability(n, s, p), 0.005);
}

TEST(FrameSuccess, ValidatesArguments) {
  EXPECT_THROW((void)frame_success_probability(0, 0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)frame_success_probability(4, 4, 0.5), std::invalid_argument);
  EXPECT_THROW((void)frame_success_probability(4, -1, 0.5), std::invalid_argument);
  EXPECT_THROW((void)frame_success_probability(4, 1, 1.5), std::invalid_argument);
}

TEST(Sensitivity, FractionMapping) {
  EXPECT_EQ(sensitivity_from_fraction(1, 0.9), 0);   // single packet frame.
  EXPECT_EQ(sensitivity_from_fraction(11, 0.5), 5);
  EXPECT_EQ(sensitivity_from_fraction(11, 1.0), 10);
  EXPECT_EQ(sensitivity_from_fraction(11, 0.0), 0);
  EXPECT_THROW((void)sensitivity_from_fraction(0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)sensitivity_from_fraction(5, 1.5), std::invalid_argument);
}

TEST(DistanceDistortion, MeasurementGrowsWithDistanceForMovingContent) {
  const video::SceneGenerator gen{
      video::SceneParameters::preset(video::MotionLevel::kMedium), 3};
  const auto clip = gen.render_clip(40);
  const auto samples = measure_substitution_distortion(clip, 8);
  ASSERT_EQ(samples.distances.size(), 8u);
  EXPECT_GT(samples.mse.back(), samples.mse.front());
}

TEST(DistanceDistortion, PooledMeasurementMatchesSerial) {
  video::SceneParameters p =
      video::SceneParameters::preset(video::MotionLevel::kHigh);
  p.width = 96;
  p.height = 64;
  p.scene_cut_period = 7;
  const auto clip = video::SceneGenerator{p, 5}.render_clip(19);
  util::ThreadPool pool{4};
  for (const int max_distance : {1, 6, 18}) {
    const auto serial = measure_substitution_distortion(clip, max_distance);
    const auto pooled =
        measure_substitution_distortion(clip, max_distance, &pool);
    EXPECT_EQ(pooled.distances, serial.distances);
    EXPECT_EQ(pooled.mse, serial.mse) << "max_distance " << max_distance;
  }
}

TEST(DistanceDistortion, FitInterpolatesMeasurements) {
  DistanceSamples samples;
  for (int d = 1; d <= 10; ++d) {
    samples.distances.push_back(d);
    samples.mse.push_back(5.0 * d + 0.3 * d * d);
  }
  const auto fit = DistanceDistortion::fit(samples, 5);
  for (int d = 1; d <= 10; ++d) {
    EXPECT_NEAR(fit(d), 5.0 * d + 0.3 * d * d, 0.5);
  }
}

TEST(DistanceDistortion, ClampsOutsideFittedRange) {
  DistanceSamples samples;
  for (int d = 1; d <= 6; ++d) {
    samples.distances.push_back(d);
    samples.mse.push_back(10.0 * d);
  }
  const auto fit = DistanceDistortion::fit(samples, 3);
  EXPECT_NEAR(fit(0.2), fit(1.0), 1e-9);     // below range.
  EXPECT_NEAR(fit(100.0), fit(6.0), 1e-9);   // saturated.
  EXPECT_GE(fit.max_distortion(), fit(3.0));
  EXPECT_DOUBLE_EQ(fit.saturation_distance(), 6.0);
}

TEST(DistanceDistortion, NeverNegative) {
  // A wiggly fit must be clamped at zero.
  DistanceSamples samples;
  for (int d = 1; d <= 7; ++d) {
    samples.distances.push_back(d);
    samples.mse.push_back(d <= 2 ? 0.01 : 20.0 * d);
  }
  const auto fit = DistanceDistortion::fit(samples, 5);
  for (double d = 1.0; d <= 7.0; d += 0.1) {
    EXPECT_GE(fit(d), 0.0);
  }
}

TEST(DistanceDistortion, DefaultIsZero) {
  const DistanceDistortion d;
  EXPECT_DOUBLE_EQ(d(1.0), 0.0);
  EXPECT_DOUBLE_EQ(d(100.0), 0.0);
}

}  // namespace
}  // namespace tv::distortion
