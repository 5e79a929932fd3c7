// The adversary's inference chain and the leakage scorer, on captures
// synthesized deterministically from the real sender pipeline.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "analysis/leakage.hpp"
#include "analysis/sweep.hpp"
#include "core/experiment.hpp"

namespace tv::analysis {
namespace {

/// One in-memory sweep cell with explicit axes; both members of a
/// with/without-countermeasure pair get the same derived seed.
LeakageCellResult run_cell(const policy::EncryptionPolicy& pol,
                           const policy::ShapingPolicy& shaping,
                           video::MotionLevel motion = video::MotionLevel::kLow,
                           std::uint64_t seed = 1) {
  LeakageSpec spec;
  spec.policies = {pol};
  spec.shapings = {shaping};
  spec.motion = motion;
  spec.seed = seed;
  const std::vector<LeakageCell> cells = enumerate_leakage_cells(spec);
  const core::Workload workload =
      core::build_workload(spec.motion, spec.gop_size, spec.frames,
                           spec.seed, spec.pipeline.fps);
  return run_leakage_cell(spec, cells.front(), workload);
}

policy::EncryptionPolicy policy_of(const char* spec) {
  return policy::policy_from_string(spec, crypto::Algorithm::kAes256);
}

// ---- Acceptance: the headline adversary result.  Under every paper
// policy with no countermeasures the I-frames stand out by size alone —
// precision and recall at least 0.9 on deterministic captures.
TEST(AnalysisInference, IFrameDetectionBeats90PercentWithoutShaping) {
  for (const char* pol : {"none", "P", "I", "all"}) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      const LeakageCellResult r =
          run_cell(policy_of(pol), policy::ShapingPolicy{},
                   video::MotionLevel::kLow, seed);
      EXPECT_GE(r.metrics.i_precision, 0.9)
          << "policy " << pol << " seed " << seed;
      EXPECT_GE(r.metrics.i_recall, 0.9)
          << "policy " << pol << " seed " << seed;
    }
  }
}

TEST(AnalysisInference, RecoversGopSizeOnUnshapedCaptures) {
  const LeakageCellResult r =
      run_cell(policy_of("I"), policy::ShapingPolicy{});
  EXPECT_EQ(r.metrics.gop_error, 0);
  EXPECT_EQ(r.inference.gop_size_est, 16);
}

TEST(AnalysisInference, ClassifiesAllThreeMotionPresets) {
  for (const auto motion :
       {video::MotionLevel::kLow, video::MotionLevel::kMedium,
        video::MotionLevel::kHigh}) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      const LeakageCellResult r =
          run_cell(policy_of("none"), policy::ShapingPolicy{}, motion, seed);
      EXPECT_TRUE(r.metrics.motion_match)
          << to_string(motion) << " seed " << seed << " classified as "
          << to_string(r.inference.motion_est) << " (P/I ratio "
          << r.inference.p_over_i_size_ratio << ")";
    }
  }
}

TEST(AnalysisInference, EncryptedFractionTracksThePolicy) {
  // I-only encryption on the default workload marks a minority of
  // packets; the visible-marker estimate matches the true fraction.
  const LeakageCellResult r =
      run_cell(policy_of("I"), policy::ShapingPolicy{});
  EXPECT_GT(r.truth.encrypted_packet_fraction, 0.0);
  EXPECT_LT(r.truth.encrypted_packet_fraction, 1.0);
  EXPECT_LT(r.metrics.encrypted_fraction_error, 0.05);
}

TEST(AnalysisInference, PsnrProxyLandsNearTheMeasuredEavesdropperPsnr) {
  // The proxy feeds the adversary's own estimates into the Section 4.3
  // model; on a clean I-only capture it should land within a few dB of
  // the PSNR measured by decoding what the snooper captured.
  const LeakageCellResult r =
      run_cell(policy_of("I"), policy::ShapingPolicy{});
  EXPECT_GT(r.inference.eavesdropper_psnr_db_est, 0.0);
  EXPECT_GT(r.truth.eavesdropper_psnr_db, 0.0);
  EXPECT_LT(r.metrics.psnr_error_db, 6.0);
}

TEST(AnalysisInference, BitrateAndTrajectoryAreExactWithoutShaping) {
  const LeakageCellResult r =
      run_cell(policy_of("none"), policy::ShapingPolicy{});
  EXPECT_LT(r.metrics.bitrate_rel_error, 0.01);
  EXPECT_LT(r.metrics.trajectory_mae_kbps, 1.0);
}

/// Features of a clip's cleartext wire stream heard in full, one packet
/// per millisecond.
CaptureFeatures cleartext_features(video::MotionLevel motion,
                                   std::uint64_t seed) {
  const core::Workload workload =
      core::build_workload(motion, 8, 24, seed, 30.0);
  std::vector<net::RawCapture> captures;
  captures.reserve(workload.packets.size());
  for (std::size_t i = 0; i < workload.packets.size(); ++i) {
    const util::ByteView wire = workload.packets[i].payload.wire();
    captures.push_back(net::RawCapture{
        1e-3 * static_cast<double>(i),
        std::vector<std::uint8_t>{wire.begin(), wire.end()}});
  }
  return extract_features(captures);
}

TEST(AnalysisInference, SharedReferenceCacheIsBitwiseEqualToAFreshOne) {
  // Two motions and two calibration seeds through one shared cache: each
  // lookup must land on its own key's terms, never on a stale neighbour.
  AdversaryConfig config;
  AdversaryConfig reseeded;
  reseeded.calibration_seed = config.calibration_seed + 1;
  ReferenceCache shared;
  for (const video::MotionLevel motion :
       {video::MotionLevel::kLow, video::MotionLevel::kHigh}) {
    const CaptureFeatures features = cleartext_features(motion, 3);
    for (const AdversaryConfig& c : {config, reseeded}) {
      const InferenceResult fresh = infer_stream(features, c);
      const InferenceResult cached = infer_stream(features, c, shared);
      EXPECT_EQ(cached.motion_est, motion);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(cached.eavesdropper_psnr_db_est),
                std::bit_cast<std::uint64_t>(fresh.eavesdropper_psnr_db_est));
    }
  }
  EXPECT_EQ(shared.size(), 4u);  // 2 motions x 2 seeds: every one missed.
}

// ---- score_leakage unit conventions.
TEST(AnalysisLeakage, PrecisionConventionsWhenNothingIsDetected) {
  InferenceResult inference;
  FrameEstimate f;
  f.rtp_timestamp = 0;
  f.is_i = false;
  inference.frames.push_back(f);

  GroundTruth truth;
  truth.fps = 30.0;
  truth.frame_is_i = {true};
  const LeakageMetrics m = score_leakage(inference, truth);
  EXPECT_DOUBLE_EQ(m.i_precision, 1.0);  // no false claims made.
  EXPECT_DOUBLE_EQ(m.i_recall, 0.0);     // but the true I was missed.
  EXPECT_DOUBLE_EQ(m.i_f1, 0.0);
}

TEST(AnalysisLeakage, MapsRtpTimestampsBackToFrameIndices) {
  InferenceResult inference;
  for (int k = 0; k < 4; ++k) {
    FrameEstimate f;
    f.rtp_timestamp = static_cast<std::uint32_t>(k * 3000);  // 90kHz/30fps.
    f.is_i = (k == 0 || k == 2);
    inference.frames.push_back(f);
  }
  GroundTruth truth;
  truth.fps = 30.0;
  truth.frame_is_i = {true, false, true, false};
  const LeakageMetrics m = score_leakage(inference, truth);
  EXPECT_DOUBLE_EQ(m.i_precision, 1.0);
  EXPECT_DOUBLE_EQ(m.i_recall, 1.0);
  EXPECT_DOUBLE_EQ(m.i_f1, 1.0);
}

TEST(AnalysisLeakage, GroundTruthUsesContentBytesAndUnjitteredSchedule) {
  const core::Workload workload = core::build_workload(
      video::MotionLevel::kLow, 8, 16, 3, 30.0);
  std::vector<double> send_times;
  send_times.reserve(workload.packets.size());
  for (std::size_t i = 0; i < workload.packets.size(); ++i) {
    send_times.push_back(0.01 * static_cast<double>(i));
  }
  const GroundTruth truth =
      ground_truth_of(workload, workload.packets, send_times, 0.25);
  EXPECT_EQ(truth.gop_size, 8);
  EXPECT_EQ(truth.frame_is_i.size(), workload.stream.frames.size());
  EXPECT_GT(truth.mean_bitrate_bps, 0.0);
  EXPECT_FALSE(truth.trajectory_kbps.empty());
  EXPECT_DOUBLE_EQ(truth.encrypted_packet_fraction, 0.0);
}

}  // namespace
}  // namespace tv::analysis
