// build_workload's output pinned bit for bit: every clip plane, stream
// byte, wire byte and characterization term of three builds folds into
// one FNV-1a digest, so any change to rendering, encoding, packetization
// or the MSE terms — including their summation order — shows up here.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>

namespace tv::core {
namespace {

class Fnv1a {
 public:
  void bytes(std::span<const std::uint8_t> data) {
    for (const std::uint8_t b : data) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes(std::span<const std::uint8_t>{
          reinterpret_cast<const std::uint8_t*>(&v) + i, 1});
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t workload_digest(const Workload& w) {
  Fnv1a h;
  for (const video::Frame& f : w.clip) {
    h.bytes(f.y_plane());
    h.bytes(f.u_plane());
    h.bytes(f.v_plane());
  }
  for (const video::EncodedFrame& f : w.stream.frames) {
    h.u64(static_cast<std::uint64_t>(f.index));
    h.u64(f.is_i ? 1 : 0);
    h.bytes(f.data);
  }
  for (const net::VideoPacket& p : w.packets) h.bytes(p.payload.wire());
  for (const double mse : w.frame_mse) h.f64(mse);
  h.f64(w.base_mse);
  h.f64(w.null_mse);
  for (const double c : w.inter.polynomial().coefficients()) h.f64(c);
  h.f64(w.inter.saturation_distance());
  return h.value();
}

TEST(BuildWorkload, PinnedDigest) {
  struct Case {
    video::MotionLevel motion;
    int gop;
    int frames;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {video::MotionLevel::kLow, 30, 60, 1, 0xd7548068983e1766ULL},
      {video::MotionLevel::kHigh, 16, 100, 4, 0xac5f95c6fe71c32bULL},
      {video::MotionLevel::kMedium, 7, 20, 1034457907,
       0xd000063450098386ULL},
  };
  for (const Case& c : cases) {
    const Workload w = build_workload(c.motion, c.gop, c.frames, c.seed);
    EXPECT_EQ(workload_digest(w), c.digest)
        << video::to_string(c.motion) << " gop " << c.gop << " frames "
        << c.frames << " seed " << c.seed << ": 0x" << std::hex
        << workload_digest(w);
  }
}

}  // namespace
}  // namespace tv::core
