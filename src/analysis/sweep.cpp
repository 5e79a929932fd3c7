#include "analysis/sweep.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "crypto/suite.hpp"
#include "energy/energy_model.hpp"
#include "live/sender.hpp"
#include "live/stream_map.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "video/quality.hpp"

namespace tv::analysis {

namespace {

using util::fmt;
using util::json_double;
using util::json_escape;

double decode_psnr(const core::Workload& workload,
                   const std::vector<video::ReceivedFrameData>& frames) {
  const video::Decoder decoder{workload.codec};
  const video::FrameSequence decoded = decoder.decode_stream(
      workload.stream.width, workload.stream.height, frames);
  return video::sequence_psnr(workload.clip, decoded);
}

}  // namespace

std::vector<policy::EncryptionPolicy> LeakageSpec::policy_axis() const {
  if (!policies.empty()) return policies;
  return policy::headline_policies(pipeline.algorithm);
}

std::vector<policy::ShapingPolicy> LeakageSpec::shaping_axis() const {
  if (!shapings.empty()) return shapings;
  // The docs/adversary.md headline column: no shaping, then each knob
  // alone so its leakage suppression and cost are attributable.  The
  // jitter sigma is sized against the adversary's 250 ms trajectory
  // window — smaller sigmas never move a packet across a bin edge.
  std::vector<policy::ShapingPolicy> axis(4);
  axis[1].pad_bucket_bytes = 256;
  axis[2].hide_markers = true;
  axis[3].jitter_stddev_s = 20e-3;
  return axis;
}

void LeakageSpec::validate() const {
  if (gop_size < 2) {
    throw std::invalid_argument{"LeakageSpec: gop_size < 2"};
  }
  if (frames < gop_size) {
    throw std::invalid_argument{"LeakageSpec: frames < gop_size"};
  }
  if (adversary.fps <= 0.0 || adversary.trajectory_window_s <= 0.0) {
    throw std::invalid_argument{"LeakageSpec: bad adversary cadence"};
  }
  if (adversary.cluster_separation < 1.0) {
    throw std::invalid_argument{
        "LeakageSpec: cluster_separation < 1 labels everything I"};
  }
  for (const policy::EncryptionPolicy& p : policy_axis()) p.validate();
  for (const policy::ShapingPolicy& s : shaping_axis()) s.validate();
  core::validate(pipeline);
}

std::size_t LeakageSpec::cell_count() const {
  return policy_axis().size() * shaping_axis().size();
}

std::vector<LeakageCell> enumerate_leakage_cells(const LeakageSpec& spec) {
  const std::vector<policy::EncryptionPolicy> policies = spec.policy_axis();
  const std::vector<policy::ShapingPolicy> shapings = spec.shaping_axis();
  std::vector<LeakageCell> cells;
  cells.reserve(policies.size() * shapings.size());
  std::size_t index = 0;
  for (const policy::EncryptionPolicy& p : policies) {
    for (const policy::ShapingPolicy& s : shapings) {
      LeakageCell cell;
      cell.index = index;
      cell.policy = p;
      cell.shaping = s;
      cell.seed = util::derive_seed(spec.seed, index);
      cells.push_back(cell);
      ++index;
    }
  }
  return cells;
}

LeakageCellResult run_leakage_cell(
    const LeakageSpec& spec, const LeakageCell& cell,
    const core::Workload& workload,
    const std::vector<net::WireRtpPacket>* external_capture) {
  ReferenceCache references;
  return run_leakage_cell(spec, cell, workload, external_capture, references);
}

LeakageCellResult run_leakage_cell(
    const LeakageSpec& spec, const LeakageCell& cell,
    const core::Workload& workload,
    const std::vector<net::WireRtpPacket>* external_capture,
    ReferenceCache& references) {
  LeakageCellResult r;
  r.cell = cell;

  // ---- Sender side, exactly as live::run_loopback stages it: clone,
  // pad (before encryption — the trailer must end up inside the
  // ciphertext), select, encrypt, transfer, degrade-revert, hide markers.
  util::Arena arena;
  std::vector<net::VideoPacket> packets =
      net::clone_packets(workload.packets, arena);
  net::pad_to_bucket(packets, arena, cell.shaping.pad_bucket_bytes);
  const std::vector<bool> selected = cell.policy.select(packets);
  const auto cipher =
      crypto::make_cipher_from_seed(cell.policy.algorithm, cell.seed);
  const auto flow_iv = live::flow_iv_for(*cipher, cell.seed);
  net::encrypt_selected(packets, selected, *cipher, flow_iv);

  core::PipelineConfig pipeline = spec.pipeline;
  pipeline.algorithm = cell.policy.algorithm;
  const core::TransferResult transfer =
      core::simulate_transfer(pipeline, packets, cell.seed);

  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (i < transfer.degraded_cleartext.size() &&
        transfer.degraded_cleartext[i]) {
      std::memcpy(packets[i].payload.data(),
                  workload.packets[i].payload.data(),
                  packets[i].content_size());
      if (packets[i].pad_bytes > 0) {
        (void)net::rtp_write_pad_trailer(packets[i].payload,
                                         packets[i].content_size());
      }
      packets[i].encrypted = false;
      packets[i].payload.set_marker(false);
    }
  }
  if (cell.shaping.hide_markers) net::hide_wire_markers(packets);

  r.packet_count = packets.size();
  for (const net::VideoPacket& p : packets) {
    r.pad_overhead_bytes += p.pad_bytes;
  }

  // ---- The capture the loopback eavesdropper tap would record in
  // replay mode: the wire datagrams the channel let it hear, at jittered
  // send times.  Synthesized in memory so a sweep cell never depends on
  // kernel socket buffers — that is what keeps `--threads N` byte-stable.
  const std::vector<double> send_times =
      live::schedule_from_timings(transfer.timings);
  std::vector<double> jittered = send_times;
  live::jitter_schedule(jittered, cell.shaping.jitter_stddev_s, cell.seed);

  std::vector<net::RawCapture> captures;
  captures.reserve(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (i >= transfer.eavesdropper_captured.size() ||
        !transfer.eavesdropper_captured[i]) {
      continue;
    }
    const util::ByteView wire = packets[i].payload.wire();
    captures.push_back(net::RawCapture{
        jittered[i], std::vector<std::uint8_t>{wire.begin(), wire.end()}});
  }
  r.captured_packets = captures.size();

  const CaptureFeatures features = external_capture != nullptr
                                       ? extract_features(*external_capture)
                                       : extract_features(captures);
  r.inference = infer_stream(features, spec.adversary, references);

  // ---- Ground truth from the sender's own state: unjittered schedule,
  // content (unpadded) bytes, and the eavesdropper PSNR actually measured
  // by decoding what the snooper captured.
  r.truth = ground_truth_of(workload, packets, send_times,
                            spec.adversary.trajectory_window_s);
  const int frame_count = static_cast<int>(workload.stream.frames.size());
  r.truth.eavesdropper_psnr_db = decode_psnr(
      workload, net::reassemble(packets, transfer.eavesdropper_captured,
                                frame_count, nullptr, flow_iv));
  r.metrics = score_leakage(r.inference, r.truth);

  // ---- The countermeasures' price, in the paper's currency.  Padding
  // already paid inside simulate_transfer (bigger payloads, longer T_t);
  // jitter extends the transfer tail and adds its half-normal mean to
  // every packet's delay; marker hiding is free on this meter.
  double last_send = transfer.duration_s;
  for (const double t : jittered) last_send = std::max(last_send, t);
  r.duration_s = last_send;
  r.jitter_mean_delay_s =
      live::jitter_mean_delay_s(cell.shaping.jitter_stddev_s);
  r.mean_delay_ms = transfer.mean_delay_ms() + 1e3 * r.jitter_mean_delay_s;
  const energy::EnergyBreakdown energy = energy::transfer_energy(
      pipeline.device.power_coefficients(pipeline.algorithm), r.duration_s,
      transfer.encrypted_payload_bytes, transfer.airtime_s);
  r.mean_power_w = energy::mean_power_w(energy, r.duration_s);
  return r;
}

void LeakageTableSink::begin(const LeakageSpec& spec) {
  out_ << fmt("leakage sweep: motion=%s gop=%d frames=%d seed=%llu\n",
              to_string(spec.motion), spec.gop_size, spec.frames,
              static_cast<unsigned long long>(spec.seed));
  out_ << "cell policy     shaping              "
          "iP     iR     gopE  mot  brErr   trajMAE  qErr    "
          "psnrE   delay_ms  power_w  pad_B\n";
}

void LeakageTableSink::cell(const LeakageCellResult& r) {
  out_ << fmt("%4zu %-10s %-20s %.3f  %.3f  %4d  %-3s  %.4f  %7.1f  %.4f  "
              "%6.2f  %8.2f  %7.3f  %5zu\n",
              r.cell.index, r.cell.policy.spec().c_str(),
              r.cell.shaping.spec().c_str(), r.metrics.i_precision,
              r.metrics.i_recall, r.metrics.gop_error,
              r.metrics.motion_match ? "ok" : "NO",
              r.metrics.bitrate_rel_error, r.metrics.trajectory_mae_kbps,
              r.metrics.encrypted_fraction_error, r.metrics.psnr_error_db,
              r.mean_delay_ms, r.mean_power_w, r.pad_overhead_bytes);
}

void LeakageJsonlSink::cell(const LeakageCellResult& r) {
  out_ << fmt("{\"cell\":%zu,\"policy\":\"%s\",\"shaping\":\"%s\","
              "\"seed\":%llu,",
              r.cell.index, json_escape(r.cell.policy.spec()).c_str(),
              json_escape(r.cell.shaping.spec()).c_str(),
              static_cast<unsigned long long>(r.cell.seed));
  out_ << fmt("\"packets\":%zu,\"captured\":%zu,\"frames_observed\":%zu,"
              "\"i_frames_detected\":%zu,",
              r.packet_count, r.captured_packets, r.inference.frames.size(),
              r.inference.i_frames_detected);
  out_ << fmt("\"gop_est\":%d,\"gop_true\":%d,\"motion_est\":\"%s\","
              "\"motion_true\":\"%s\",",
              r.inference.gop_size_est, r.truth.gop_size,
              to_string(r.inference.motion_est), to_string(r.truth.motion));
  out_ << "\"bitrate_est_bps\":" << json_double(r.inference.mean_bitrate_bps)
       << ",\"bitrate_true_bps\":" << json_double(r.truth.mean_bitrate_bps)
       << ",\"q_est\":" << json_double(r.inference.encrypted_fraction_est)
       << ",\"q_true\":" << json_double(r.truth.encrypted_packet_fraction)
       << ",\"psnr_est_db\":"
       << json_double(r.inference.eavesdropper_psnr_db_est)
       << ",\"psnr_true_db\":" << json_double(r.truth.eavesdropper_psnr_db)
       << ",\"i_precision\":" << json_double(r.metrics.i_precision)
       << ",\"i_recall\":" << json_double(r.metrics.i_recall)
       << ",\"i_f1\":" << json_double(r.metrics.i_f1)
       << ",\"gop_error\":" << r.metrics.gop_error
       << ",\"motion_match\":" << (r.metrics.motion_match ? "true" : "false")
       << ",\"bitrate_rel_error\":" << json_double(r.metrics.bitrate_rel_error)
       << ",\"trajectory_mae_kbps\":"
       << json_double(r.metrics.trajectory_mae_kbps)
       << ",\"encrypted_fraction_error\":"
       << json_double(r.metrics.encrypted_fraction_error)
       << ",\"psnr_error_db\":" << json_double(r.metrics.psnr_error_db)
       << ",\"duration_s\":" << json_double(r.duration_s)
       << ",\"mean_delay_ms\":" << json_double(r.mean_delay_ms)
       << ",\"mean_power_w\":" << json_double(r.mean_power_w)
       << ",\"pad_overhead_bytes\":" << r.pad_overhead_bytes
       << ",\"jitter_mean_delay_s\":" << json_double(r.jitter_mean_delay_s)
       << "}\n";
}

void LeakageCsvSink::begin(const LeakageSpec& spec) {
  (void)spec;
  out_ << "cell,policy,shaping,seed,packets,captured,frames_observed,"
          "i_frames_detected,gop_est,gop_true,motion_est,motion_true,"
          "bitrate_est_bps,bitrate_true_bps,q_est,q_true,psnr_est_db,"
          "psnr_true_db,i_precision,i_recall,i_f1,gop_error,motion_match,"
          "bitrate_rel_error,trajectory_mae_kbps,encrypted_fraction_error,"
          "psnr_error_db,duration_s,mean_delay_ms,mean_power_w,"
          "pad_overhead_bytes,jitter_mean_delay_s\n";
}

void LeakageCsvSink::cell(const LeakageCellResult& r) {
  out_ << fmt("%zu,%s,%s,%llu,%zu,%zu,%zu,%zu,%d,%d,%s,%s,", r.cell.index,
              r.cell.policy.spec().c_str(), r.cell.shaping.spec().c_str(),
              static_cast<unsigned long long>(r.cell.seed), r.packet_count,
              r.captured_packets, r.inference.frames.size(),
              r.inference.i_frames_detected, r.inference.gop_size_est,
              r.truth.gop_size, to_string(r.inference.motion_est),
              to_string(r.truth.motion));
  out_ << fmt("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,",
              r.inference.mean_bitrate_bps, r.truth.mean_bitrate_bps,
              r.inference.encrypted_fraction_est,
              r.truth.encrypted_packet_fraction,
              r.inference.eavesdropper_psnr_db_est,
              r.truth.eavesdropper_psnr_db);
  out_ << fmt("%.17g,%.17g,%.17g,%d,%d,%.17g,%.17g,%.17g,%.17g,",
              r.metrics.i_precision, r.metrics.i_recall, r.metrics.i_f1,
              r.metrics.gop_error, r.metrics.motion_match ? 1 : 0,
              r.metrics.bitrate_rel_error, r.metrics.trajectory_mae_kbps,
              r.metrics.encrypted_fraction_error, r.metrics.psnr_error_db);
  out_ << fmt("%.17g,%.17g,%.17g,%zu,%.17g\n", r.duration_s, r.mean_delay_ms,
              r.mean_power_w, r.pad_overhead_bytes, r.jitter_mean_delay_s);
}

LeakageSummary LeakageRunner::run(const LeakageSpec& spec,
                                  LeakageSink& sink) {
  spec.validate();
  const std::vector<LeakageCell> cells = enumerate_leakage_cells(spec);
  // One shared workload: every cell shapes/encrypts its own clone, so the
  // grid isolates the policy/shaping axes from content variation.
  const core::Workload workload =
      core::build_workload(spec.motion, spec.gop_size, spec.frames,
                           spec.seed, spec.pipeline.fps);

  LeakageSummary summary;
  summary.cells = cells.size();
  summary.threads = pool_ != nullptr ? pool_->thread_count() : 1;
  summary.wall_s = util::stream_results(
      pool_, cells.size(), spec, sink,
      [&](std::size_t index) {
        return run_leakage_cell(spec, cells[index], workload, nullptr,
                                references_);
      },
      [](const LeakageCellResult&) {});
  return summary;
}

}  // namespace tv::analysis
