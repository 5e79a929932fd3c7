// core::score_received must give exactly the PSNR/MOS of a full
// decode_stream + sequence_psnr + sequence_mos, whatever was lost.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/experiment.hpp"
#include "crypto/suite.hpp"
#include "policy/policy.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "video/quality.hpp"

namespace tv::core {
namespace {

constexpr int kGop = 10;

const Workload& workload(video::MotionLevel motion) {
  static const Workload low =
      build_workload(video::MotionLevel::kLow, kGop, 30, 5);
  static const Workload high =
      build_workload(video::MotionLevel::kHigh, kGop, 30, 5);
  return motion == video::MotionLevel::kLow ? low : high;
}

/// One flow of a workload's packets, encrypted under a policy, and the
/// per-frame bytes a node reassembles from any delivery mask.
class View {
 public:
  View(const Workload& w, const char* policy, std::uint64_t key_seed = 11)
      : w_(w),
        packets_(net::clone_packets(w.packets, arena_)),
        cipher_(crypto::make_cipher_from_seed(crypto::Algorithm::kAes256,
                                              key_seed)),
        iv_(cipher_->block_size(), 0x5a) {
    const policy::EncryptionPolicy p =
        policy::policy_from_string(policy, crypto::Algorithm::kAes256);
    net::encrypt_selected(packets_, p.select(packets_), *cipher_, iv_);
  }

  [[nodiscard]] std::vector<bool> all() const {
    return std::vector<bool>(packets_.size(), true);
  }

  /// `delivered` minus every packet of frame `frame` at or after `offset`
  /// (offset 0 takes the header; a later offset leaves it readable).
  [[nodiscard]] std::vector<bool> drop(std::vector<bool> delivered, int frame,
                                       std::size_t offset = 0) const {
    bool dropped = false;
    for (std::size_t i = 0; i < packets_.size(); ++i) {
      if (packets_[i].frame_index == frame &&
          packets_[i].byte_offset >= offset) {
        delivered[i] = false;
        dropped = true;
      }
    }
    EXPECT_TRUE(dropped) << "frame " << frame << " offset " << offset;
    return delivered;
  }

  [[nodiscard]] std::vector<video::ReceivedFrameData> receive(
      const std::vector<bool>& delivered,
      const crypto::BlockCipher* cipher) const {
    return net::reassemble(packets_, delivered,
                           static_cast<int>(w_.stream.frames.size()), cipher,
                           iv_);
  }
  [[nodiscard]] std::vector<video::ReceivedFrameData> receiver(
      const std::vector<bool>& delivered) const {
    return receive(delivered, cipher_.get());
  }
  [[nodiscard]] std::vector<video::ReceivedFrameData> eavesdropper(
      const std::vector<bool>& delivered) const {
    return receive(delivered, nullptr);
  }

  /// Byte offset of the last packet of `frame` (its header is earlier).
  [[nodiscard]] std::size_t last_offset(int frame) const {
    std::size_t offset = 0;
    for (const net::VideoPacket& p : packets_) {
      if (p.frame_index == frame) offset = std::max(offset, p.byte_offset);
    }
    return offset;
  }

 private:
  const Workload& w_;
  util::Arena arena_;
  std::vector<net::VideoPacket> packets_;
  std::unique_ptr<crypto::BlockCipher> cipher_;
  std::vector<std::uint8_t> iv_;
};

/// Scores `frames` both ways and requires the doubles to be equal; returns
/// the PSNR so callers can check which regime they hit.
double expect_matches_full_decode(
    const Workload& w, const std::vector<video::ReceivedFrameData>& frames) {
  const video::Decoder decoder{w.codec};
  const video::FrameSequence full =
      decoder.decode_stream(w.stream.width, w.stream.height, frames);
  const QualityScore score = score_received(w, decoder, frames);
  EXPECT_EQ(score.psnr_db, video::sequence_psnr(w.clip, full));
  EXPECT_EQ(score.mos, video::sequence_mos(w.clip, full));
  return score.psnr_db;
}

double lossless_psnr(const Workload& w) {
  return video::psnr_from_mse(w.base_mse);
}

TEST(ScoreReceived, MatchesFullDecode) {
  for (const auto motion :
       {video::MotionLevel::kLow, video::MotionLevel::kHigh}) {
    SCOPED_TRACE(video::to_string(motion));
    const Workload& w = workload(motion);
    const double lossless = lossless_psnr(w);
    const View v{w, "P"};
    const auto all = v.all();

    EXPECT_EQ(expect_matches_full_decode(w, v.receiver(all)), lossless);
    // Frame 0 damaged: its header lost (CIF-gray fallback), or only a
    // later slice lost.
    EXPECT_LT(expect_matches_full_decode(w, v.receiver(v.drop(all, 0))),
              lossless);
    EXPECT_LT(expect_matches_full_decode(
                  w, v.receiver(v.drop(all, 0, v.last_offset(0)))),
              lossless);
    // A damaged I-frame after an intact GOP.
    EXPECT_LT(expect_matches_full_decode(w, v.receiver(v.drop(all, kGop))),
              lossless);
    EXPECT_LT(expect_matches_full_decode(
                  w, v.receiver(v.drop(all, kGop, v.last_offset(kGop)))),
              lossless);
    // A mid-GOP loss, then an intact I-frame resyncs; then damage again
    // late in the resynced GOP, so the reference is rebuilt from frame
    // kGop rather than frame 0.
    EXPECT_LT(expect_matches_full_decode(w, v.receiver(v.drop(all, 4))),
              lossless);
    EXPECT_LT(expect_matches_full_decode(
                  w, v.receiver(v.drop(v.drop(all, 4), kGop + 7))),
              lossless);
    // The last frame alone damaged.
    EXPECT_LT(expect_matches_full_decode(w, v.receiver(v.drop(all, 29))),
              lossless);
    // Every frame lost.
    expect_matches_full_decode(
        w, v.receiver(std::vector<bool>(all.size(), false)));

    // Seeded random loss masks, light to heavy, seen by both nodes.
    util::Rng rng{2024};
    for (const double loss : {0.01, 0.03, 0.1, 0.3}) {
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<bool> mask(all.size());
        for (std::size_t i = 0; i < mask.size(); ++i) {
          mask[i] = rng.uniform() >= loss;
        }
        expect_matches_full_decode(w, v.receiver(mask));
        expect_matches_full_decode(w, v.eavesdropper(mask));
      }
    }
  }
}

TEST(ScoreReceived, MatchesFullDecodeForTheEavesdropper) {
  for (const auto motion :
       {video::MotionLevel::kLow, video::MotionLevel::kHigh}) {
    SCOPED_TRACE(video::to_string(motion));
    const Workload& w = workload(motion);
    for (const char* policy : {"none", "I", "P", "all"}) {
      SCOPED_TRACE(policy);
      const View v{w, policy};
      expect_matches_full_decode(w, v.eavesdropper(v.all()));
      expect_matches_full_decode(w, v.eavesdropper(v.drop(v.all(), 3)));
    }
  }
}

TEST(ScoreReceived, WrongKeyIsDecidedByTheBytes) {
  // Every byte arrives and reads as available, but decrypting with the
  // wrong key garbles the encrypted frames: only a byte comparison can
  // tell them from intact ones.
  const Workload& w = workload(video::MotionLevel::kLow);
  const View v{w, "I"};
  const auto wrong =
      crypto::make_cipher_from_seed(crypto::Algorithm::kAes256, 12);
  const auto frames = v.receive(v.all(), wrong.get());
  for (const auto& f : frames) {
    EXPECT_EQ(std::count(f.byte_ok.begin(), f.byte_ok.end(), false), 0);
  }
  EXPECT_LT(expect_matches_full_decode(w, frames), lossless_psnr(w) - 10.0);
}

TEST(ScoreReceived, RequiresPerFrameMse) {
  Workload w = build_workload(video::MotionLevel::kLow, 2, 2, 1);
  std::vector<video::ReceivedFrameData> frames;
  for (const auto& f : w.stream.frames) {
    frames.push_back(video::ReceivedFrameData::intact(f.data));
  }
  const video::Decoder decoder{w.codec};
  EXPECT_EQ(score_received(w, decoder, frames).psnr_db,
            video::psnr_from_mse(w.base_mse));
  frames.pop_back();
  EXPECT_THROW((void)score_received(w, decoder, frames),
               std::invalid_argument);
  frames.push_back(video::ReceivedFrameData::intact(w.stream.frames[1].data));
  w.frame_mse.clear();
  EXPECT_THROW((void)score_received(w, decoder, frames),
               std::invalid_argument);
}

}  // namespace
}  // namespace tv::core
