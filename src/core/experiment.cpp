#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "crypto/suite.hpp"
#include "util/thread_pool.hpp"
#include "video/quality.hpp"

namespace tv::core {

namespace {

/// Deterministic per-flow IV sized for the cipher.
std::vector<std::uint8_t> flow_iv_for(const crypto::BlockCipher& cipher,
                                      std::uint64_t seed) {
  std::vector<std::uint8_t> iv(cipher.block_size());
  std::uint64_t state = seed ^ 0x1234567890abcdefULL;
  for (auto& b : iv) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<std::uint8_t>(state >> 56);
  }
  return iv;
}

}  // namespace

double default_sensitivity(video::MotionLevel motion) {
  switch (motion) {
    case video::MotionLevel::kLow: return 0.35;
    case video::MotionLevel::kMedium: return 0.50;
    case video::MotionLevel::kHigh: return 0.65;
  }
  return 0.6;
}

Workload build_workload(video::MotionLevel motion, int gop_size, int frames,
                        std::uint64_t seed, double fps) {
  if (frames < gop_size) {
    throw std::invalid_argument{"build_workload: need at least one GOP"};
  }
  Workload w;
  w.motion = motion;
  w.fps = fps;
  w.codec.gop_size = gop_size;
  // Crude one-pass rate control, standing in for x264's: faster content
  // gets a coarser inter quantizer so the bitrate grows sublinearly with
  // motion (paper clips were encoded at comparable rates).
  switch (motion) {
    case video::MotionLevel::kLow: w.codec.p_qstep = 14.0; break;
    case video::MotionLevel::kMedium: w.codec.p_qstep = 18.0; break;
    case video::MotionLevel::kHigh: w.codec.p_qstep = 24.0; break;
  }

  const video::Encoder encoder{w.codec};
  const video::SceneGenerator scene{video::SceneParameters::preset(motion),
                                    seed};
  // The build's own short-lived pool, never a caller's: a caller may be a
  // pool worker whose siblings wait on this very build (util::OnceMap), and
  // this pool's parallel_for helps only from its own queues.
  util::ThreadPool pool{std::min(util::ThreadPool::default_thread_count(),
                                 static_cast<unsigned>(frames))};
  w.clip = scene.render_clip(frames, &pool);
  w.stream = encoder.encode(w.clip, &pool);
  w.packets = net::packetize(w.stream, w.arena, net::kDefaultMtu, fps);

  // Coding distortion floor: decode the intact stream and compare, one GOP
  // per task.  An intact I-frame decodes the same against any reference
  // (it rewrites every pixel), so each GOP starts from none.  Alongside,
  // the case-3 reference: content against the decoder's blank mid-gray
  // output.  Both means then sum their terms in frame order.
  const std::size_t n = w.clip.size();
  const auto gop = static_cast<std::size_t>(gop_size);
  const video::Decoder decoder{w.codec};
  video::Frame gray(w.stream.width, w.stream.height);
  gray.fill(128, 128, 128);
  w.frame_mse.resize(n);
  std::vector<double> null_mse(n);
  util::for_each_index(&pool, (n + gop - 1) / gop, [&](std::size_t g) {
    video::Frame lossless;
    for (std::size_t i = g * gop; i < std::min(n, (g + 1) * gop); ++i) {
      lossless = decoder
                     .decode_frame(video::ReceivedFrameData::intact(
                                       w.stream.frames[i].data),
                                   i == g * gop ? nullptr : &lossless)
                     .frame;
      w.frame_mse[i] = video::luma_mse(w.clip[i], lossless);
      null_mse[i] = video::luma_mse(w.clip[i], gray);
    }
  });
  double base_sum = 0.0;
  double null_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    base_sum += w.frame_mse[i];
    null_sum += null_mse[i];
  }
  w.base_mse = base_sum / static_cast<double>(n);
  w.null_mse = null_sum / static_cast<double>(n);

  // Fit the distance-distortion curve (Fig. 2 procedure) on this content,
  // out to a GOP's worth of frames so the saturation value reflects the
  // staleness a lost I-frame actually produces.
  const int max_distance =
      std::min<int>(gop_size, static_cast<int>(w.clip.size()) - 1);
  w.inter = distortion::DistanceDistortion::fit(
      distortion::measure_substitution_distortion(w.clip, max_distance,
                                                  &pool),
      5);
  return w;
}

QualityScore score_received(
    const Workload& workload, const video::Decoder& decoder,
    const std::vector<video::ReceivedFrameData>& frames) {
  const std::size_t n = workload.clip.size();
  if (workload.frame_mse.size() != n) {
    throw std::invalid_argument{"score_received: workload has no frame_mse"};
  }
  if (frames.size() != n || n == 0 || workload.stream.frames.size() != n) {
    throw std::invalid_argument{"score_received: frame count mismatch"};
  }
  // Mirrors decode_stream: frame 0 decodes against no reference, every
  // later frame against the previous output.  `lossless` says whether that
  // previous output equals the lossless decode (vacuously so before frame
  // 0, whose lossless decode had no reference either); `current` holds it
  // only when it does not, or once it has been rebuilt.  `restart` is the
  // last frame of the lossless run that decodes to lossless from its own
  // bytes alone: an I-frame, or frame 0.
  bool lossless = true;
  std::size_t restart = 0;
  video::Frame current;
  double mse_sum = 0.0;
  double mos_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const video::ReceivedFrameData& received = frames[i];
    const video::EncodedFrame& sent = workload.stream.frames[i];
    const bool intact =
        std::find(received.byte_ok.begin(), received.byte_ok.end(), false) ==
            received.byte_ok.end() &&
        received.data == sent.data;
    double mse = 0.0;
    if (intact && (lossless || sent.is_i)) {
      mse = workload.frame_mse[i];
      if (sent.is_i || i == 0) restart = i;
      lossless = true;
    } else {
      if (lossless && i > 0) {
        // Rebuild lossless[i - 1]: the restart frame needs no reference,
        // and every frame after it up to i - 1 arrived intact.
        current = decoder.decode_frame(frames[restart], nullptr).frame;
        for (std::size_t k = restart + 1; k < i; ++k) {
          current = decoder.decode_frame(frames[k], &current).frame;
        }
      }
      current = decoder.decode_frame(received, i == 0 ? nullptr : &current)
                    .frame;
      mse = video::luma_mse(workload.clip[i], current);
      lossless = false;
    }
    mse_sum += mse;
    mos_sum += video::mos_from_psnr(video::psnr_from_mse(mse));
  }
  return {video::psnr_from_mse(mse_sum / static_cast<double>(n)),
          mos_sum / static_cast<double>(n)};
}

ExperimentResult run_experiment(const ExperimentSpec& spec,
                                const Workload& workload,
                                util::ThreadPool* pool) {
  if (spec.repetitions < 1) {
    throw std::invalid_argument{"run_experiment: repetitions < 1"};
  }
  ExperimentResult result;
  result.label = spec.policy.label();

  // Apply the policy's packet selection and encrypt for real — on a
  // private clone so the shared workload's plaintext bytes stay intact.
  util::Arena arena;
  std::vector<net::VideoPacket> packets =
      net::clone_packets(workload.packets, arena);
  const std::vector<bool> selected = spec.policy.select(packets);
  const auto cipher =
      crypto::make_cipher_from_seed(spec.policy.algorithm, spec.seed);
  const auto flow_iv = flow_iv_for(*cipher, spec.seed);
  net::encrypt_selected(packets, selected, *cipher, flow_iv);
  result.encryption = net::encryption_stats(packets);

  PipelineConfig pipeline = spec.pipeline;
  pipeline.algorithm = spec.policy.algorithm;

  const int frame_count = static_cast<int>(workload.stream.frames.size());
  const video::Decoder decoder{workload.codec};

  // Repetitions are mutually independent: each draws its own seed from
  // (spec.seed, rep), reads only shared const state, and writes only its
  // own slot.  The fold below then merges the slots in repetition order
  // (see util::RunningStats::merge), so a pooled run is bit-identical to
  // the serial one at any thread count.
  struct RepOutcome {
    bool ok = false;
    TransferResult transfer;
    util::RunningStats delay_ms, duration_s, power_w;
    util::RunningStats rx_psnr, rx_mos, ev_psnr, ev_mos;
    std::vector<FailureEvent> failures;
  };
  std::vector<RepOutcome> reps(static_cast<std::size_t>(spec.repetitions));

  // Instrumented runs (tracing or stage aggregation) execute serially so
  // the trace stream and the collector's contents are deterministic.
  const bool instrumented = spec.trace != nullptr || spec.collect_stage_stats;
  StageStatsCollector collector;

  auto run_rep = [&](std::size_t index) {
    RepOutcome& out = reps[index];
    const int rep = static_cast<int>(index);
    std::optional<StampTraceSink> stamp;
    if (instrumented) {
      stamp.emplace(spec.trace,
                    spec.collect_stage_stats ? &collector : nullptr, rep);
    }
    // A repetition that dies on a degraded network is recorded as a
    // FailureEvent and skipped; the survivors still produce statistics.
    TransferResult transfer;
    try {
      transfer = simulate_transfer(
          pipeline, packets,
          spec.seed * 7919 + static_cast<std::uint64_t>(rep),
          stamp ? &*stamp : nullptr);
    } catch (const std::exception&) {
      FailureEvent failure;
      failure.kind = FailureEvent::Kind::kException;
      failure.repetition = rep;
      out.failures.push_back(failure);
      return;
    }
    out.ok = true;
    for (FailureEvent f : transfer.failures) {
      f.repetition = rep;
      out.failures.push_back(f);
    }

    out.delay_ms.add(transfer.mean_delay_ms());
    out.duration_s.add(transfer.duration_s);

    const energy::EnergyBreakdown energy = energy::transfer_energy(
        spec.pipeline.device.power_coefficients(spec.policy.algorithm),
        transfer.duration_s, transfer.encrypted_payload_bytes,
        transfer.airtime_s);
    out.power_w.add(energy::mean_power_w(energy, transfer.duration_s));

    if (spec.evaluate_quality) {
      // Legitimate receiver: decrypts what it gets.
      const QualityScore rx = score_received(
          workload, decoder,
          net::reassemble(packets, transfer.receiver_delivered, frame_count,
                          cipher.get(), flow_iv));
      out.rx_psnr.add(rx.psnr_db);
      out.rx_mos.add(rx.mos);

      // Eavesdropper: overhears, cannot decrypt.
      const QualityScore ev = score_received(
          workload, decoder,
          net::reassemble(packets, transfer.eavesdropper_captured,
                          frame_count, nullptr, flow_iv));
      out.ev_psnr.add(ev.psnr_db);
      out.ev_mos.add(ev.mos);
    }
    out.transfer = std::move(transfer);
  };

  util::for_each_index(instrumented ? nullptr : pool, reps.size(), run_rep);
  if (spec.collect_stage_stats) result.stage_stats = collector.stats;

  // Deterministic fold in repetition order.
  const TransferResult* first_transfer = nullptr;
  for (const RepOutcome& out : reps) {
    result.failures.insert(result.failures.end(), out.failures.begin(),
                           out.failures.end());
    if (!out.ok) {
      ++result.failed_repetitions;
      continue;
    }
    if (first_transfer == nullptr) first_transfer = &out.transfer;
    result.total_retransmissions += out.transfer.retransmissions;
    result.total_deadline_drops += out.transfer.deadline_drops;
    result.total_outage_drops += out.transfer.outage_drops;
    result.total_degraded_packets += out.transfer.degraded_packets;
    ++result.completed_repetitions;

    result.delay_ms.merge(out.delay_ms);
    result.duration_s.merge(out.duration_s);
    result.power_w.merge(out.power_w);
    result.receiver_psnr_db.merge(out.rx_psnr);
    result.receiver_mos.merge(out.rx_mos);
    result.eavesdropper_psnr_db.merge(out.ev_psnr);
    result.eavesdropper_mos.merge(out.ev_mos);
  }

  // Every repetition failed: return what we have (the failure record)
  // rather than crashing the caller's whole sweep.
  if (first_transfer == nullptr) return result;

  // Calibrate the analytic model on the first transfer (Section 6.1) and
  // attach its predictions.
  const TrafficCalibration traffic = calibrate_traffic(
      packets, first_transfer->timings, workload.fps, /*sample_packets=*/0);
  const ServiceCalibration service =
      calibrate_service(packets, first_transfer->timings, pipeline, traffic);

  const double q_i = spec.policy.i_packet_fraction();
  const double q_p = spec.policy.p_packet_fraction();
  result.predicted_delay = predict_delay(traffic, service, q_i, q_p);
  result.predicted_power = predict_power(
      pipeline.device, spec.policy.algorithm, traffic, service, q_i, q_p);

  DistortionInputs di;
  di.gop_size = workload.codec.gop_size;
  di.n_gops = frame_count / workload.codec.gop_size;
  di.sensitivity_fraction = spec.sensitivity_fraction;
  di.base_mse = workload.base_mse;
  di.null_mse = workload.null_mse;
  di.inter = workload.inter;

  const bool tcp = pipeline.transport == Transport::kHttpTcp;
  // Per-packet delivery rates at each node.  Under the reliable transport
  // the receiver eventually gets (essentially) everything and the
  // eavesdropper benefits from overhearing the retransmissions.
  const double p_s_rx =
      tcp ? 1.0 : 1.0 - pipeline.receiver_loss_prob;
  double p_s_ev = 1.0 - pipeline.eavesdropper_loss_prob;
  if (tcp) {
    const double mean_attempts =
        1.0 / (1.0 - pipeline.receiver_loss_prob);
    p_s_ev = 1.0 - std::pow(pipeline.eavesdropper_loss_prob, mean_attempts);
  }
  result.predicted_receiver =
      predict_distortion(di, traffic, p_s_rx, 0.0, 0.0);
  result.predicted_eavesdropper =
      predict_distortion(di, traffic, p_s_ev, q_i, q_p);
  return result;
}

}  // namespace tv::core
