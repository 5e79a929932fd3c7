#include "analysis/inference.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/experiment.hpp"
#include "core/predictor.hpp"

namespace tv::analysis {

namespace {

/// Deterministic 2-means over frame sizes: centroids start at the min
/// and max, iterate to a fixed point (at most 64 rounds — sizes are a
/// small finite set, it converges long before that).  Returns the two
/// means; assignment is by nearest centroid.
struct TwoMeans {
  double lo = 0.0;
  double hi = 0.0;
};

TwoMeans two_means(const std::vector<double>& values) {
  TwoMeans m;
  const auto [mn, mx] = std::minmax_element(values.begin(), values.end());
  m.lo = *mn;
  m.hi = *mx;
  for (int round = 0; round < 64; ++round) {
    double sum_lo = 0.0, sum_hi = 0.0;
    std::size_t n_lo = 0, n_hi = 0;
    for (const double v : values) {
      if (std::abs(v - m.lo) <= std::abs(v - m.hi)) {
        sum_lo += v;
        ++n_lo;
      } else {
        sum_hi += v;
        ++n_hi;
      }
    }
    const double lo = n_lo > 0 ? sum_lo / static_cast<double>(n_lo) : m.lo;
    const double hi = n_hi > 0 ? sum_hi / static_cast<double>(n_hi) : m.hi;
    if (lo == m.lo && hi == m.hi) break;
    m.lo = lo;
    m.hi = hi;
  }
  return m;
}

/// Modal gap between consecutive detected I-frames (ties -> smallest
/// gap, for determinism).  0 when fewer than two I-frames exist.
int modal_i_spacing(const std::vector<FrameEstimate>& frames) {
  std::map<int, int> gap_counts;
  int last_i = -1;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    if (!frames[k].is_i) continue;
    if (last_i >= 0) ++gap_counts[static_cast<int>(k) - last_i];
    last_i = static_cast<int>(k);
  }
  int best_gap = 0, best_count = 0;
  for (const auto& [gap, count] : gap_counts) {
    if (count > best_count) {
      best_gap = gap;
      best_count = count;
    }
  }
  return best_gap;
}

/// Motion class from the P/I mean-size ratio.  The synthetic codec's
/// rate control (core::build_workload) couples motion to the inter
/// quantizer, so faster content spends relatively more bytes on P
/// frames; the cut points sit between the three presets' measured
/// signatures (low 0.03-0.07, medium 0.13-0.15, high 0.23-0.25 on
/// unshaped captures across seeds).
video::MotionLevel motion_from_ratio(double p_over_i) {
  if (p_over_i < 0.10) return video::MotionLevel::kLow;
  if (p_over_i < 0.19) return video::MotionLevel::kMedium;
  return video::MotionLevel::kHigh;
}

/// The Section 4.3 PSNR proxy: what an eavesdropper with these estimates
/// effectively "sees".  Content terms (base/null MSE, the D(d) fit) come
/// from a reference workload of the *estimated* motion class and GOP —
/// self-calibration, never ground truth.
double psnr_proxy(const InferenceResult& r, const CaptureFeatures& f,
                  const AdversaryConfig& config, ReferenceCache& references) {
  if (r.frames.empty()) return 0.0;
  const int gop = std::clamp(r.gop_size_est > 0
                                 ? r.gop_size_est
                                 : static_cast<int>(r.frames.size()),
                             2, 64);
  const ReferenceTerms& reference = references.get(
      r.motion_est, gop, config.calibration_seed, config.fps);

  // Observable traffic shape: packets per frame by estimated class, and
  // per-class encrypted fractions from the visible markers.
  double i_packets = 0.0, p_packets = 0.0, i_frames = 0.0, p_frames = 0.0;
  double i_marked = 0.0, p_marked = 0.0;
  for (const FrameEstimate& fr : r.frames) {
    const auto packets = static_cast<double>(fr.packets);
    if (fr.is_i) {
      i_packets += packets;
      i_marked += fr.marker_fraction * packets;
      ++i_frames;
    } else {
      p_packets += packets;
      p_marked += fr.marker_fraction * packets;
      ++p_frames;
    }
  }
  core::TrafficCalibration traffic;
  traffic.mean_i_packets_per_frame =
      i_frames > 0.0 ? i_packets / i_frames : 1.0;
  traffic.mean_p_packets_per_frame =
      p_frames > 0.0 ? p_packets / p_frames : 1.0;

  core::DistortionInputs di;
  di.gop_size = gop;
  di.n_gops = std::max(1, static_cast<int>(r.frames.size()) / gop);
  di.sensitivity_fraction = core::default_sensitivity(r.motion_est);
  di.base_mse = reference.base_mse;
  di.null_mse = reference.null_mse;
  di.inter = reference.inter;

  const double q_i = i_packets > 0.0 ? i_marked / i_packets : 0.0;
  const double q_p = p_packets > 0.0 ? p_marked / p_packets : 0.0;
  const double p_success = std::clamp(1.0 - f.loss_rate_est, 0.0, 1.0);
  return core::predict_distortion(di, traffic, p_success, q_i, q_p).psnr_db;
}

}  // namespace

const ReferenceTerms& ReferenceCache::get(video::MotionLevel motion, int gop,
                                          std::uint64_t calibration_seed,
                                          double fps) {
  return terms_.get(
      Key{static_cast<int>(motion), gop, calibration_seed, fps}, [&] {
        // Serial build (it must not wait on a pool its waiters occupy);
        // the workload dies here, only its three content terms are kept.
        const core::Workload reference = core::build_workload(
            motion, gop, 2 * gop, calibration_seed, fps);
        return ReferenceTerms{reference.base_mse, reference.null_mse,
                              reference.inter};
      });
}

InferenceResult infer_stream(const CaptureFeatures& features,
                             const AdversaryConfig& config) {
  ReferenceCache references;
  return infer_stream(features, config, references);
}

InferenceResult infer_stream(const CaptureFeatures& features,
                             const AdversaryConfig& config,
                             ReferenceCache& references) {
  InferenceResult out;
  out.trajectory_window_s = config.trajectory_window_s;
  if (features.frames.empty()) return out;

  out.loss_rate_est = features.loss_rate_est;
  out.encrypted_fraction_est = features.marker_fraction;

  // ---- Frame-type labels: two-cluster size contrast.  I-frames are
  // intra-coded and dwarf their P neighbours; when shaping flattens the
  // contrast below the separation factor, the adversary (correctly)
  // reports that it cannot find key frames.
  std::vector<double> sizes;
  sizes.reserve(features.frames.size());
  for (const FrameObservation& f : features.frames) {
    sizes.push_back(static_cast<double>(f.inferred_bytes));
  }
  const TwoMeans clusters = two_means(sizes);
  const bool separated =
      clusters.hi >= config.cluster_separation * std::max(clusters.lo, 1.0);

  out.frames.reserve(features.frames.size());
  double i_bytes = 0.0, p_bytes = 0.0, i_count = 0.0, p_count = 0.0;
  std::size_t total_bytes = 0;
  for (const FrameObservation& f : features.frames) {
    FrameEstimate e;
    e.rtp_timestamp = f.rtp_timestamp;
    e.packets = f.packet_count;
    e.bytes = f.inferred_bytes;
    e.marker_fraction = f.marker_fraction;
    const double size = static_cast<double>(f.inferred_bytes);
    e.is_i = separated &&
             std::abs(size - clusters.hi) < std::abs(size - clusters.lo);
    if (e.is_i) {
      ++out.i_frames_detected;
      i_bytes += size;
      ++i_count;
    } else {
      p_bytes += size;
      ++p_count;
    }
    total_bytes += f.inferred_bytes;
    out.frames.push_back(e);
  }

  // ---- GOP structure and motion class.
  out.gop_size_est = modal_i_spacing(out.frames);
  const double mean_i = i_count > 0.0 ? i_bytes / i_count : 0.0;
  const double mean_p = p_count > 0.0 ? p_bytes / p_count : 0.0;
  out.p_over_i_size_ratio = mean_i > 0.0 ? mean_p / mean_i : 1.0;
  out.motion_est = motion_from_ratio(out.p_over_i_size_ratio);

  // ---- Bitrate: mean and windowed trajectory over capture time.
  const double span = features.capture_span_s();
  if (span > 0.0) {
    out.mean_bitrate_bps = 8.0 * static_cast<double>(total_bytes) / span;
    const auto windows = static_cast<std::size_t>(
        std::ceil(span / config.trajectory_window_s));
    out.trajectory_kbps.assign(windows, 0.0);
    for (const PacketObservation& p : features.packets) {
      auto w = static_cast<std::size_t>(
          (p.capture_time_s - features.capture_start_s) /
          config.trajectory_window_s);
      if (w >= windows) w = windows - 1;  // the end instant.
      out.trajectory_kbps[w] +=
          8.0 * static_cast<double>(p.inferred_content_bytes) / 1000.0 /
          config.trajectory_window_s;
    }
  }

  // ---- What the snooper effectively sees, in dB.
  out.eavesdropper_psnr_db_est =
      psnr_proxy(out, features, config, references);
  return out;
}

}  // namespace tv::analysis
