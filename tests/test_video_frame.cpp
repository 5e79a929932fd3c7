#include "video/frame.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace tv::video {
namespace {

TEST(Frame, ConstructionAndPlaneSizes) {
  Frame f(352, 288);
  EXPECT_EQ(f.width(), 352);
  EXPECT_EQ(f.height(), 288);
  EXPECT_EQ(f.chroma_width(), 176);
  EXPECT_EQ(f.chroma_height(), 144);
  EXPECT_EQ(f.y_plane().size(), 352u * 288u);
  EXPECT_EQ(f.u_plane().size(), 176u * 144u);
}

TEST(Frame, RejectsBadDimensions) {
  EXPECT_THROW(Frame(0, 16), std::invalid_argument);
  EXPECT_THROW(Frame(17, 16), std::invalid_argument);
  EXPECT_THROW(Frame(32, 24), std::invalid_argument);
}

TEST(Frame, FillAndPixelAccess) {
  Frame f(32, 32);
  f.fill(10, 20, 30);
  EXPECT_EQ(f.y(5, 7), 10);
  EXPECT_EQ(f.u(3, 3), 20);
  EXPECT_EQ(f.v(0, 15), 30);
  f.y(5, 7) = 200;
  EXPECT_EQ(f.y(5, 7), 200);
}

TEST(LumaMse, ZeroForIdenticalFrames) {
  Frame a(32, 32);
  a.fill(100, 128, 128);
  EXPECT_DOUBLE_EQ(luma_mse(a, a), 0.0);
}

TEST(LumaMse, ConstantOffsetSquared) {
  Frame a(32, 32);
  Frame b(32, 32);
  a.fill(100, 128, 128);
  b.fill(110, 0, 255);  // chroma must not matter for luma MSE.
  EXPECT_DOUBLE_EQ(luma_mse(a, b), 100.0);
}

TEST(LumaMse, EqualsDoubleSumOnRandomFrames) {
  // The integer kernel against the plain double sum it stands for.
  const auto reference = [](const Frame& a, const Frame& b) {
    double acc = 0.0;
    for (std::size_t i = 0; i < a.y_plane().size(); ++i) {
      const double d = static_cast<double>(a.y_plane()[i]) -
                       static_cast<double>(b.y_plane()[i]);
      acc += d * d;
    }
    return acc / static_cast<double>(a.y_plane().size());
  };
  util::Rng rng{20131209};
  for (int trial = 0; trial < 8; ++trial) {
    Frame a(kCifWidth, kCifHeight);
    Frame b(kCifWidth, kCifHeight);
    for (auto& v : a.y_plane()) v = static_cast<std::uint8_t>(rng());
    for (auto& v : b.y_plane()) v = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(luma_mse(a, b), reference(a, b)) << "trial " << trial;
  }
  Frame black(kCifWidth, kCifHeight);
  Frame white(kCifWidth, kCifHeight);
  black.fill(0, 128, 128);
  white.fill(255, 128, 128);
  EXPECT_EQ(luma_mse(black, white), 255.0 * 255.0);
  EXPECT_EQ(luma_mse(white, black), reference(white, black));
}

TEST(LumaMse, RejectsDimensionMismatch) {
  Frame a(32, 32);
  Frame b(64, 32);
  EXPECT_THROW((void)luma_mse(a, b), std::invalid_argument);
}

TEST(Psnr, Equation28Values) {
  // PSNR = 20 log10(255 / sqrt(MSE)).
  EXPECT_NEAR(psnr_from_mse(1.0), 48.1308, 1e-3);
  EXPECT_NEAR(psnr_from_mse(100.0), 28.1308, 1e-3);
  EXPECT_TRUE(std::isinf(psnr_from_mse(0.0)));
}

TEST(Psnr, RoundtripWithMse) {
  for (double mse : {0.5, 3.0, 42.0, 2000.0}) {
    EXPECT_NEAR(mse_from_psnr(psnr_from_mse(mse)), mse, 1e-9);
  }
}

TEST(SequencePsnr, AveragesMseFirst) {
  Frame a(32, 32);
  Frame b0(32, 32);
  Frame b1(32, 32);
  a.fill(100, 128, 128);
  b0.fill(100, 128, 128);  // MSE 0.
  b1.fill(120, 128, 128);  // MSE 400.
  const double psnr = sequence_psnr({a, a}, {b0, b1});
  EXPECT_NEAR(psnr, psnr_from_mse(200.0), 1e-9);
}

TEST(AsciiThumbnail, ShapeAndBrightnessOrdering) {
  Frame dark(32, 32);
  dark.fill(0, 128, 128);
  Frame bright(32, 32);
  bright.fill(255, 128, 128);
  const auto d = ascii_thumbnail(dark, 10, 4);
  const auto b = ascii_thumbnail(bright, 10, 4);
  ASSERT_EQ(d.size(), 4u);
  ASSERT_EQ(d[0].size(), 10u);
  EXPECT_EQ(d[0][0], ' ');
  EXPECT_EQ(b[0][0], '@');
}

}  // namespace
}  // namespace tv::video
