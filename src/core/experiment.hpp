// End-to-end experiment runner: Section 6's methodology in one call.
//
// A Workload (clip + encoded stream + packetization) is built once per
// (motion level, GOP size) configuration; each experiment applies a policy,
// simulates `repetitions` transfers (the paper uses 20), reconstructs the
// video at the legitimate receiver and at the eavesdropper, and reports
// means with 95% confidence intervals next to the analytic predictions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/device_profile.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "policy/policy.hpp"
#include "util/arena.hpp"
#include "util/stats.hpp"
#include "video/codec.hpp"
#include "video/scene.hpp"

namespace tv::util {
class ThreadPool;
}

namespace tv::core {

/// A reusable, deterministic video workload.
///
/// Move-only: `arena` owns the wire bytes of `packets`, which are views
/// (net::PacketBuf) into it.  Experiments never mutate the workload's
/// packets — they clone_packets() into their own arena before encrypting.
struct Workload {
  video::MotionLevel motion = video::MotionLevel::kLow;
  video::CodecConfig codec;
  double fps = 30.0;
  video::FrameSequence clip;            ///< original YUV frames.
  video::EncodedStream stream;          ///< compressed IPP...P stream.
  util::Arena arena;                    ///< owns the packets' wire bytes.
  std::vector<net::VideoPacket> packets;  ///< plaintext packetization.
  double base_mse = 0.0;  ///< coding distortion of a lossless decode.
  /// Per-frame luma MSE of the lossless decode against `clip`; base_mse is
  /// their mean.  score_received reads a frame's value here instead of
  /// decoding it when its decode is known to be lossless.
  std::vector<double> frame_mse;
  double null_mse = 0.0;  ///< content MSE vs. a blank (gray) decode.
  distortion::DistanceDistortion inter;  ///< fitted D(d) for this content.
};

/// Generate, encode, packetize and characterize a clip.  Deterministic in
/// `seed`.  `frames` should be a multiple of the GOP size (Table 1 clips
/// are 300 frames at 30 fps).
///
/// Runs on its own short-lived util::ThreadPool of min(hardware threads,
/// frames) threads: one frame per render task, one GOP per encode and
/// characterization-decode task, one distance per substitution-distortion
/// task.  Every sum still runs in frame order, so the result is
/// bit-identical to a serial build.  The pool is never a caller's, which
/// makes the build safe inside util::OnceMap builders (WorkloadCache,
/// analysis::ReferenceCache) whose waiters occupy the caller's pool.
[[nodiscard]] Workload build_workload(video::MotionLevel motion,
                                      int gop_size, int frames,
                                      std::uint64_t seed, double fps = 30.0);

/// Quality of one node's view of a workload's stream.
struct QualityScore {
  double psnr_db = 0.0;  ///< video::sequence_psnr against the clip.
  double mos = 0.0;      ///< video::sequence_mos against the clip.
};

/// Score what a node reassembled.  The result is bit-identical to
/// decoding `frames` with decoder.decode_stream and taking
/// video::sequence_psnr / video::sequence_mos against workload.clip, but a
/// frame whose output is known to equal the lossless decode is not
/// decoded: its MSE is workload.frame_mse[i].  That holds for a frame whose
/// bytes all arrived and equal the encoded frame when it is an I-frame
/// (every pixel is rewritten) or its reference is itself lossless.  The
/// first damaged frame after such a run decodes against a reference rebuilt
/// from the run's last I-frame; decoding then continues frame by frame
/// until an intact I-frame resyncs.  Throws std::invalid_argument when
/// workload.frame_mse does not cover the clip or `frames` is not one entry
/// per clip frame.
[[nodiscard]] QualityScore score_received(
    const Workload& workload, const video::Decoder& decoder,
    const std::vector<video::ReceivedFrameData>& frames);

/// What a single experiment should measure.
struct ExperimentSpec {
  policy::EncryptionPolicy policy;
  PipelineConfig pipeline;
  int repetitions = 20;
  std::uint64_t seed = 1;
  bool evaluate_quality = true;  ///< decode at receiver + eavesdropper.
  /// Decoder sensitivity fraction used by the analytic distortion model;
  /// pick by motion level (fast content tolerates almost no loss).
  double sensitivity_fraction = 0.6;
  /// Optional per-packet stage tracing: every stage of every repetition's
  /// transfer emits TraceEvents (stamped with the repetition index) into
  /// this sink.  Instrumented runs execute their repetitions serially so
  /// the event stream is deterministic.
  TraceSink* trace = nullptr;
  /// Collect per-stage aggregates (event counts, time statistics,
  /// histograms) into ExperimentResult::stage_stats.  Also serializes the
  /// repetition loop.  Off by default: results and outputs are then
  /// byte-identical to an uninstrumented build.
  bool collect_stage_stats = false;
};

struct ExperimentResult {
  std::string label;
  net::EncryptionStats encryption;

  // Resilience accounting.  A repetition that fails mid-flight is
  // recorded (kind + time + packet index + repetition) instead of
  // aborting the whole experiment; the statistics below then cover the
  // repetitions that produced data.
  std::vector<FailureEvent> failures;
  std::size_t total_retransmissions = 0;
  std::size_t total_deadline_drops = 0;
  std::size_t total_outage_drops = 0;
  std::size_t total_degraded_packets = 0;
  int completed_repetitions = 0;  ///< repetitions that yielded statistics.
  int failed_repetitions = 0;     ///< repetitions that threw.

  // Measured (across repetitions).
  util::RunningStats delay_ms;            ///< mean per-packet delay per rep.
  util::RunningStats receiver_psnr_db;
  util::RunningStats eavesdropper_psnr_db;
  util::RunningStats receiver_mos;
  util::RunningStats eavesdropper_mos;
  util::RunningStats power_w;
  util::RunningStats duration_s;

  // Analytic predictions from the calibrated model.
  DelayPrediction predicted_delay;
  DistortionPrediction predicted_receiver;
  DistortionPrediction predicted_eavesdropper;
  PowerPrediction predicted_power;

  /// Per-stage aggregates over all completed repetitions; present only
  /// when ExperimentSpec::collect_stage_stats was set.
  std::optional<StageAggregates> stage_stats;
};

/// Run one experiment configuration against a prebuilt workload.
///
/// When `pool` is non-null the repetition loop runs on it; each repetition
/// derives its own seed from `spec.seed` and its index, and the partial
/// per-repetition statistics are folded in repetition order, so the result
/// is bit-identical to the serial run at any thread count.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentSpec& spec,
                                              const Workload& workload,
                                              util::ThreadPool* pool = nullptr);

/// Default sensitivity fraction per motion level (calibrated so the model's
/// frame success tracks the slice-decoder's observed robustness).
[[nodiscard]] double default_sensitivity(video::MotionLevel motion);

}  // namespace tv::core
