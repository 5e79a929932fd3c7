#include "video/scene.hpp"

#include <gtest/gtest.h>

#include "util/thread_pool.hpp"
#include "video/frame.hpp"
#include "video/motion.hpp"

namespace tv::video {
namespace {

TEST(Scene, DeterministicPerSeedAndIndex) {
  const SceneGenerator a{SceneParameters::preset(MotionLevel::kMedium), 5};
  const SceneGenerator b{SceneParameters::preset(MotionLevel::kMedium), 5};
  const Frame fa = a.render(17);
  const Frame fb = b.render(17);
  EXPECT_DOUBLE_EQ(luma_mse(fa, fb), 0.0);
}

TEST(Scene, DifferentSeedsProduceDifferentContent) {
  const SceneGenerator a{SceneParameters::preset(MotionLevel::kMedium), 5};
  const SceneGenerator b{SceneParameters::preset(MotionLevel::kMedium), 6};
  EXPECT_GT(luma_mse(a.render(0), b.render(0)), 100.0);
}

TEST(Scene, RenderIsIndexPure) {
  const SceneGenerator g{SceneParameters::preset(MotionLevel::kHigh), 9};
  const Frame direct = g.render(40);
  const auto clip = g.render_clip(41);
  EXPECT_DOUBLE_EQ(luma_mse(direct, clip[40]), 0.0);
}

TEST(Scene, FrameDifferencesOrderByMotionLevel) {
  const int n = 30;
  double change[3] = {};
  int idx = 0;
  for (auto level : {MotionLevel::kLow, MotionLevel::kMedium,
                     MotionLevel::kHigh}) {
    const SceneGenerator g{SceneParameters::preset(level), 11};
    const auto clip = g.render_clip(n);
    double acc = 0.0;
    for (int i = 1; i < n; ++i) acc += luma_mse(clip[i - 1], clip[i]);
    change[idx++] = acc / (n - 1);
  }
  EXPECT_LT(change[0], change[1]);
  EXPECT_LT(change[1], change[2]);
}

TEST(Scene, ClassifierRecoversPresetLevels) {
  for (auto level : {MotionLevel::kLow, MotionLevel::kMedium,
                     MotionLevel::kHigh}) {
    const SceneGenerator g{SceneParameters::preset(level), 23};
    const auto clip = g.render_clip(40);
    const MotionReport report = classify_motion(clip);
    EXPECT_EQ(report.level, level) << "score " << report.score;
  }
}

TEST(Scene, SceneCutsCauseLargeJumps) {
  SceneParameters p = SceneParameters::preset(MotionLevel::kHigh);
  p.scene_cut_period = 10;
  const SceneGenerator g{p, 31};
  const Frame before = g.render(9);
  const Frame after = g.render(10);  // first frame of the next scene.
  const Frame within = g.render(8);
  EXPECT_GT(luma_mse(before, after), 4.0 * luma_mse(within, before));
}

TEST(Scene, CustomDimensionsRespected) {
  SceneParameters p = SceneParameters::preset(MotionLevel::kLow);
  p.width = 64;
  p.height = 48;
  const SceneGenerator g{p, 1};
  const Frame f = g.render(0);
  EXPECT_EQ(f.width(), 64);
  EXPECT_EQ(f.height(), 48);
}

TEST(Scene, PooledRenderClipMatchesSerial) {
  // Small frames with frequent cuts and fast objects (which wrap around
  // the edges), plus a few full-size frames of every preset.
  SceneParameters small = SceneParameters::preset(MotionLevel::kHigh);
  small.width = 96;
  small.height = 64;
  small.scene_cut_period = 5;
  util::ThreadPool pool{4};
  const auto check = [&](const SceneGenerator& g, int frames) {
    const FrameSequence serial = g.render_clip(frames);
    const FrameSequence pooled = g.render_clip(frames, &pool);
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(pooled[i].y_plane(), serial[i].y_plane()) << "frame " << i;
      EXPECT_EQ(pooled[i].u_plane(), serial[i].u_plane()) << "frame " << i;
      EXPECT_EQ(pooled[i].v_plane(), serial[i].v_plane()) << "frame " << i;
    }
  };
  check(SceneGenerator{small, 17}, 23);
  for (auto level : {MotionLevel::kLow, MotionLevel::kMedium,
                     MotionLevel::kHigh}) {
    check(SceneGenerator{SceneParameters::preset(level), 3}, 6);
  }
  EXPECT_TRUE((SceneGenerator{small, 17}.render_clip(0, &pool).empty()));
}

TEST(Scene, RenderIntoOverwritesAndChecksSize) {
  const SceneGenerator g{SceneParameters::preset(MotionLevel::kMedium), 8};
  Frame frame(kCifWidth, kCifHeight);
  frame.fill(7, 7, 7);
  g.render_into(12, frame);
  const Frame direct = g.render(12);
  EXPECT_EQ(frame.y_plane(), direct.y_plane());
  EXPECT_EQ(frame.u_plane(), direct.u_plane());
  EXPECT_EQ(frame.v_plane(), direct.v_plane());
  Frame wrong(64, 48);
  EXPECT_THROW(g.render_into(0, wrong), std::invalid_argument);
  EXPECT_THROW((void)g.render_clip(-1), std::invalid_argument);
}

TEST(MotionScore, ZeroForIdenticalFrames) {
  Frame f(32, 32);
  f.fill(90, 128, 128);
  EXPECT_DOUBLE_EQ(motion_score(f, f), 0.0);
}

TEST(MotionScore, OneForCompletelyDifferentFrames) {
  Frame a(32, 32);
  Frame b(32, 32);
  a.fill(0, 128, 128);
  b.fill(255, 128, 128);
  EXPECT_DOUBLE_EQ(motion_score(a, b), 1.0);
}

TEST(ClassifyMotion, RejectsShortClips) {
  Frame f(32, 32);
  EXPECT_THROW((void)classify_motion({f}), std::invalid_argument);
}

}  // namespace
}  // namespace tv::video
