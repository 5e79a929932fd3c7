#include "traced.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "core/calibration.hpp"
#include "crypto/suite.hpp"
#include "energy/energy_model.hpp"
#include "live/stream_map.hpp"
#include "util/thread_pool.hpp"
#include "video/quality.hpp"

namespace perfbench {

namespace tvc = tv::core;
namespace video = tv::video;
namespace net = tv::net;

namespace {

/// Payload bytes of the packets that are encrypted and set in `mask`.
std::uint64_t encrypted_bytes(const std::vector<net::VideoPacket>& packets,
                              const std::vector<bool>& mask) {
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (mask[i] && packets[i].encrypted) bytes += packets[i].payload.size();
  }
  return bytes;
}

/// reassemble + decode + PSNR/MOS of one node's view of a transfer.
struct NodeQuality {
  double psnr = 0.0;
  double mos = 0.0;
};

NodeQuality node_quality(Tracer& tracer, const tvc::Workload& workload,
                         const video::Decoder& decoder,
                         const std::vector<net::VideoPacket>& packets,
                         const std::vector<bool>& heard, int frame_count,
                         const tv::crypto::BlockCipher* cipher,
                         const std::vector<std::uint8_t>& flow_iv) {
  std::vector<video::ReceivedFrameData> frames;
  {
    // Receiver-side decryption happens inside reassemble.
    Scope span{tracer, Layer::kNetReassemble, packets.size()};
    frames = net::reassemble(packets, heard, frame_count, cipher, flow_iv);
  }
  if (cipher != nullptr) {
    const std::int64_t now = tracer.now_ns();
    tracer.record(Layer::kCryptoDecrypt, now, now,
                  encrypted_bytes(packets, heard));
  }
  video::FrameSequence decoded;
  {
    Scope span{tracer, Layer::kVideoDecode, frames.size()};
    decoded = decoder.decode_stream(workload.stream.width,
                                    workload.stream.height, frames);
  }
  NodeQuality q;
  Scope span{tracer, Layer::kVideoQuality, decoded.size()};
  q.psnr = video::sequence_psnr(workload.clip, decoded);
  q.mos = video::sequence_mos(workload.clip, decoded);
  return q;
}

/// core::run_experiment, span by span.
tvc::ExperimentResult run_experiment_traced(Tracer& tracer,
                                            const tvc::ExperimentSpec& spec,
                                            const tvc::Workload& workload,
                                            tv::util::ThreadPool& pool) {
  tvc::ExperimentResult result;
  result.label = spec.policy.label();

  tv::util::Arena arena;
  std::vector<net::VideoPacket> packets;
  std::vector<bool> selected;
  {
    Scope span{tracer, Layer::kNetClone, workload.packets.size()};
    packets = net::clone_packets(workload.packets, arena);
    selected = spec.policy.select(packets);
  }
  const auto cipher =
      tv::crypto::make_cipher_from_seed(spec.policy.algorithm, spec.seed);
  const auto flow_iv = tv::live::flow_iv_for(*cipher, spec.seed);
  {
    Scope span{tracer, Layer::kCryptoEncrypt};
    net::encrypt_selected(packets, selected, *cipher, flow_iv);
    span.set_units(encrypted_bytes(packets, selected));
  }
  result.encryption = net::encryption_stats(packets);

  tvc::PipelineConfig pipeline = spec.pipeline;
  pipeline.algorithm = spec.policy.algorithm;

  const int frame_count = static_cast<int>(workload.stream.frames.size());
  const video::Decoder decoder{workload.codec};

  struct RepOutcome {
    bool ok = false;
    tvc::TransferResult transfer;
    tv::util::RunningStats delay_ms, duration_s, power_w;
    tv::util::RunningStats rx_psnr, rx_mos, ev_psnr, ev_mos;
    std::vector<tvc::FailureEvent> failures;
  };
  std::vector<RepOutcome> reps(static_cast<std::size_t>(spec.repetitions));

  auto run_rep = [&](std::size_t index) {
    RepOutcome& out = reps[index];
    const int rep = static_cast<int>(index);
    tvc::TransferResult transfer;
    try {
      Scope span{tracer, Layer::kCoreTransfer, packets.size()};
      transfer = tvc::simulate_transfer(
          pipeline, packets,
          spec.seed * 7919 + static_cast<std::uint64_t>(rep));
    } catch (const std::exception&) {
      tvc::FailureEvent failure;
      failure.kind = tvc::FailureEvent::Kind::kException;
      failure.repetition = rep;
      out.failures.push_back(failure);
      return;
    }
    out.ok = true;
    for (tvc::FailureEvent f : transfer.failures) {
      f.repetition = rep;
      out.failures.push_back(f);
    }
    out.delay_ms.add(transfer.mean_delay_ms());
    out.duration_s.add(transfer.duration_s);
    {
      Scope span{tracer, Layer::kEnergy};
      const tv::energy::EnergyBreakdown energy = tv::energy::transfer_energy(
          spec.pipeline.device.power_coefficients(spec.policy.algorithm),
          transfer.duration_s, transfer.encrypted_payload_bytes,
          transfer.airtime_s);
      out.power_w.add(tv::energy::mean_power_w(energy, transfer.duration_s));
    }
    if (spec.evaluate_quality) {
      const NodeQuality rx = node_quality(
          tracer, workload, decoder, packets, transfer.receiver_delivered,
          frame_count, cipher.get(), flow_iv);
      out.rx_psnr.add(rx.psnr);
      out.rx_mos.add(rx.mos);
      const NodeQuality ev = node_quality(
          tracer, workload, decoder, packets, transfer.eavesdropper_captured,
          frame_count, nullptr, flow_iv);
      out.ev_psnr.add(ev.psnr);
      out.ev_mos.add(ev.mos);
    }
    out.transfer = std::move(transfer);
  };
  if (reps.size() > 1) {
    pool.parallel_for(reps.size(), run_rep);
  } else {
    run_rep(0);
  }

  const tvc::TransferResult* first_transfer = nullptr;
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
  if (first_transfer == nullptr) return result;

  // Calibration and the queueing/distortion/power predictions.
  Scope span{tracer, Layer::kCorePredict};
  const tvc::TrafficCalibration traffic = tvc::calibrate_traffic(
      packets, first_transfer->timings, workload.fps, 0);
  const tvc::ServiceCalibration service = tvc::calibrate_service(
      packets, first_transfer->timings, pipeline, traffic);
  const double q_i = spec.policy.i_packet_fraction();
  const double q_p = spec.policy.p_packet_fraction();
  result.predicted_delay = tvc::predict_delay(traffic, service, q_i, q_p);
  result.predicted_power = tvc::predict_power(
      pipeline.device, spec.policy.algorithm, traffic, service, q_i, q_p);

  tvc::DistortionInputs di;
  di.gop_size = workload.codec.gop_size;
  di.n_gops = frame_count / workload.codec.gop_size;
  di.sensitivity_fraction = spec.sensitivity_fraction;
  di.base_mse = workload.base_mse;
  di.null_mse = workload.null_mse;
  di.inter = workload.inter;

  const bool tcp = pipeline.transport == tvc::Transport::kHttpTcp;
  const double p_s_rx = tcp ? 1.0 : 1.0 - pipeline.receiver_loss_prob;
  double p_s_ev = 1.0 - pipeline.eavesdropper_loss_prob;
  if (tcp) {
    const double mean_attempts = 1.0 / (1.0 - pipeline.receiver_loss_prob);
    p_s_ev = 1.0 - std::pow(pipeline.eavesdropper_loss_prob, mean_attempts);
  }
  result.predicted_receiver =
      tvc::predict_distortion(di, traffic, p_s_rx, 0.0, 0.0);
  result.predicted_eavesdropper =
      tvc::predict_distortion(di, traffic, p_s_ev, q_i, q_p);
  return result;
}

/// Strictly in-order delivery of results that complete in any order (the
/// runners' slots + next_flush idiom), with the sink call spanned.
template <typename Result>
class OrderedFlush {
 public:
  OrderedFlush(Tracer& tracer, std::size_t n) : tracer_(tracer), slots_(n) {}

  template <typename Emit>
  void store(std::size_t index, std::unique_ptr<Result> result, Emit emit) {
    std::lock_guard lock{mu_};
    slots_[index] = std::move(result);
    while (next_ < slots_.size() && slots_[next_]) {
      {
        Scope span{tracer_, Layer::kCoreSink, 1};
        emit(*slots_[next_]);
      }
      done_.push_back(std::move(*slots_[next_]));
      slots_[next_].reset();
      ++next_;
    }
  }

  std::vector<Result> take() { return std::move(done_); }

 private:
  Tracer& tracer_;
  std::mutex mu_;  ///< guards slots_, next_ and done_.
  std::vector<std::unique_ptr<Result>> slots_;
  std::size_t next_ = 0;
  std::vector<Result> done_;
};

double mean_wire_bytes(const std::vector<net::VideoPacket>& packets) {
  if (packets.empty()) return 0.0;
  double total = 0.0;
  for (const net::VideoPacket& p : packets) {
    total += static_cast<double>(p.wire_bytes());
  }
  return total / static_cast<double>(packets.size());
}

double i_packet_share(const std::vector<net::VideoPacket>& packets) {
  if (packets.empty()) return 0.0;
  std::size_t i_packets = 0;
  for (const net::VideoPacket& p : packets) {
    if (p.is_i_frame) ++i_packets;
  }
  return static_cast<double>(i_packets) / static_cast<double>(packets.size());
}

/// cell::run_cell for a cell without fading, quality or tracing (the
/// crowded_cell configuration), span by span.
tv::cell::CellResult run_cell_traced(Tracer& tracer,
                                     const tv::cell::CellSpec& spec,
                                     const tvc::Workload& w,
                                     tv::util::ThreadPool& pool) {
  spec.validate();
  if (spec.fade_prob > 0.0 || spec.evaluate_quality ||
      spec.motions.size() != 1 || spec.gop_sizes.size() != 1) {
    throw std::invalid_argument{
        "run_cell_traced: only one-clip, fade-free, quality-off cells"};
  }
  const std::size_t n = static_cast<std::size_t>(spec.flows);
  std::vector<tv::cell::FlowConfig> configs(n);
  for (std::size_t f = 0; f < n; ++f) {
    configs[f] = tv::cell::resolve_flow(spec, f);
  }

  std::vector<tv::cell::FlowDemand> demands(n);
  tv::cell::ContentionConfig contention;
  std::optional<tv::cell::ScheduleResult> scheduled;
  {
    Scope span{tracer, Layer::kCellSchedule, n};
    double population_wire_bytes = 0.0;
    for (std::size_t f = 0; f < n; ++f) {
      tv::cell::FlowDemand& d = demands[f];
      d.index = f;
      d.policy = configs[f].policy;
      d.deadline_s = configs[f].deadline_s;
      d.clip_duration_s = static_cast<double>(spec.frames) / spec.fps;
      d.packet_count = w.packets.size();
      d.i_packet_share = i_packet_share(w.packets);
      const double wire = mean_wire_bytes(w.packets);
      population_wire_bytes += wire;
      double payload = 0.0;
      for (const net::VideoPacket& p : w.packets) {
        payload += static_cast<double>(p.payload.size());
      }
      payload /= static_cast<double>(w.packets.size());
      d.encryption_mean_s = configs[f].device.encryption_seconds(
          configs[f].policy.algorithm, static_cast<std::size_t>(payload));
      d.transmission_mean_s = tv::wifi::transmission_time_s(
          spec.phy, static_cast<std::size_t>(wire));
    }
    contention.video = {spec.flows, spec.cw_min, spec.backoff_stages};
    contention.background = {spec.background_stations,
                             spec.background_cw_min, spec.background_stages};
    contention.phy = spec.phy;
    contention.mean_wire_bytes =
        population_wire_bytes / static_cast<double>(n);
    contention.channel_error_prob = spec.channel_error_prob;
    const tv::cell::DeadlineScheduler scheduler{spec.scheduler};
    scheduled = scheduler.schedule(demands, contention);
  }
  {
    // The scheduler's own solves sit inside the cell.schedule span.  To
    // time the Bianchi solve alone, re-solve the same population sequence
    // (one solve per admitted-population change) in a span of its own.
    Scope span{tracer, Layer::kCellContention,
               static_cast<std::uint64_t>(scheduled->deferred) + 1};
    for (int k = 0; k <= scheduled->deferred; ++k) {
      contention.video.stations = spec.flows - k;
      (void)tv::cell::solve_contention(contention);
    }
  }
  const tv::cell::ScheduleResult& schedule = *scheduled;
  const tv::cell::ContentionSolution& sol = schedule.contention;
  const std::size_t reps = static_cast<std::size_t>(spec.repetitions);
  {
    tvc::PipelineConfig probe = spec.pipeline;
    probe.fps = spec.fps;
    probe.phy = spec.phy;
    probe.mac_success_prob = sol.mac_success_prob;
    probe.backoff_rate = sol.backoff_rate;
    tvc::validate(probe);
  }

  std::vector<tv::cell::FlowOutcome> outcomes(n);
  auto run_flow = [&](std::size_t f) {
    tv::cell::FlowOutcome& out = outcomes[f];
    const tv::cell::FlowConfig& cfg = configs[f];
    const tv::cell::FlowDecision& decision = schedule.flows[f];
    out.index = f;
    out.motion = cfg.motion;
    out.gop_size = cfg.gop_size;
    out.requested_policy = cfg.policy;
    out.policy = decision.policy;
    out.policy.algorithm = cfg.policy.algorithm;
    out.device_key = cfg.device.key;
    out.deadline_s = cfg.deadline_s;
    out.admitted = decision.admitted;
    out.degrade_steps = decision.degrade_steps;
    out.predicted_completion_s = decision.predicted_completion_s;
    out.slack_s = decision.slack_s;
    if (!decision.admitted) return;

    tv::util::Arena arena;
    std::vector<net::VideoPacket> packets;
    std::vector<bool> selected;
    {
      Scope span{tracer, Layer::kNetClone, w.packets.size()};
      packets = net::clone_packets(w.packets, arena);
      selected = out.policy.select(packets);
    }
    const std::uint64_t cipher_seed =
        tv::util::derive_seed(spec.seed, tv::cell::kCipherStream, f);
    const auto cipher =
        tv::crypto::make_cipher_from_seed(out.policy.algorithm, cipher_seed);
    const auto flow_iv = tv::live::flow_iv_for(*cipher, cipher_seed);
    {
      Scope span{tracer, Layer::kCryptoEncrypt};
      net::encrypt_selected(packets, selected, *cipher, flow_iv);
      span.set_units(encrypted_bytes(packets, selected));
    }

    tvc::PipelineConfig base = spec.pipeline;
    base.device = cfg.device;
    base.algorithm = out.policy.algorithm;
    base.fps = spec.fps;
    base.phy = spec.phy;
    base.backoff_rate = sol.backoff_rate;
    for (std::size_t r = 0; r < reps; ++r) {
      const double e = 0.0;  // no fading: every block is Good.
      tvc::PipelineConfig pipeline = base;
      pipeline.mac_success_prob = sol.mac_success_prob * (1.0 - e);
      pipeline.receiver_loss_prob =
          1.0 - (1.0 - base.receiver_loss_prob) * (1.0 - e);
      tvc::TransferResult transfer;
      try {
        Scope span{tracer, Layer::kCoreTransfer, packets.size()};
        transfer = tvc::simulate_transfer(
            pipeline, packets, tv::cell::flow_transfer_seed(spec.seed, f, r));
      } catch (const std::exception&) {
        ++out.failed_repetitions;
        continue;
      }
      ++out.completed_repetitions;
      out.delay_ms.add(transfer.mean_delay_ms());
      out.duration_s.add(transfer.duration_s);
      if (cfg.deadline_s > 0.0 && transfer.duration_s > cfg.deadline_s) {
        ++out.deadline_misses;
      }
      Scope span{tracer, Layer::kEnergy};
      const tv::energy::EnergyBreakdown energy = tv::energy::transfer_energy(
          cfg.device.power_coefficients(out.policy.algorithm),
          transfer.duration_s, transfer.encrypted_payload_bytes,
          transfer.airtime_s);
      out.power_w.add(tv::energy::mean_power_w(energy, transfer.duration_s));
      out.energy_j.add(energy.total_j());
    }
  };
  if (n > 1) {
    pool.parallel_for(n, run_flow);
  } else {
    run_flow(0);
  }

  tv::cell::CellResult result;
  result.flows = spec.flows;
  result.background = spec.background_stations;
  result.admitted = schedule.admitted;
  result.deferred = schedule.deferred;
  result.total_degrade_steps = schedule.total_degrade_steps;
  result.schedule_iterations = schedule.iterations;
  result.contention = sol;
  for (tv::cell::FlowOutcome& out : outcomes) {
    if (out.admitted) {
      result.delay_ms.merge(out.delay_ms);
      result.duration_s.merge(out.duration_s);
      result.power_w.merge(out.power_w);
      result.energy_j.merge(out.energy_j);
      result.receiver_psnr_db.merge(out.receiver_psnr_db);
      result.eavesdropper_psnr_db.merge(out.eavesdropper_psnr_db);
      result.deadline_misses += out.deadline_misses;
      if (out.deadline_s > 0.0) {
        result.deadline_repetitions +=
            static_cast<std::size_t>(out.completed_repetitions);
      }
    }
    result.flow_outcomes.push_back(std::move(out));
  }
  return result;
}

}  // namespace

tvc::Workload build_workload_traced(Tracer& tracer, video::MotionLevel motion,
                                    int gop_size, int frames,
                                    std::uint64_t seed, double fps) {
  if (frames < gop_size) {
    throw std::invalid_argument{"build_workload: need at least one GOP"};
  }
  tvc::Workload w;
  w.motion = motion;
  w.fps = fps;
  w.codec.gop_size = gop_size;
  switch (motion) {
    case video::MotionLevel::kLow: w.codec.p_qstep = 14.0; break;
    case video::MotionLevel::kMedium: w.codec.p_qstep = 18.0; break;
    case video::MotionLevel::kHigh: w.codec.p_qstep = 24.0; break;
  }
  {
    Scope span{tracer, Layer::kVideoRender, static_cast<std::uint64_t>(frames)};
    const video::SceneGenerator scene{video::SceneParameters::preset(motion),
                                      seed};
    w.clip = scene.render_clip(frames);
  }
  {
    Scope span{tracer, Layer::kVideoEncode, static_cast<std::uint64_t>(frames)};
    const video::Encoder encoder{w.codec};
    w.stream = encoder.encode(w.clip);
  }
  {
    Scope span{tracer, Layer::kNetPacketize};
    w.packets = net::packetize(w.stream, w.arena, net::kDefaultMtu, fps);
    span.set_units(w.packets.size());
  }
  {
    Scope span{tracer, Layer::kCoreCharacterize,
               static_cast<std::uint64_t>(frames)};
    const video::Decoder decoder{w.codec};
    std::vector<video::ReceivedFrameData> intact;
    intact.reserve(w.stream.frames.size());
    for (const auto& f : w.stream.frames) {
      intact.push_back(video::ReceivedFrameData::intact(f.data));
    }
    const video::FrameSequence lossless =
        decoder.decode_stream(w.stream.width, w.stream.height, intact);
    double mse = 0.0;
    for (std::size_t i = 0; i < w.clip.size(); ++i) {
      mse += video::luma_mse(w.clip[i], lossless[i]);
    }
    w.base_mse = mse / static_cast<double>(w.clip.size());

    video::Frame gray(w.stream.width, w.stream.height);
    gray.fill(128, 128, 128);
    mse = 0.0;
    for (const auto& f : w.clip) mse += video::luma_mse(f, gray);
    w.null_mse = mse / static_cast<double>(w.clip.size());
  }
  {
    Scope span{tracer, Layer::kDistortionFit};
    const int max_distance =
        std::min<int>(gop_size, static_cast<int>(w.clip.size()) - 1);
    w.inter = tv::distortion::DistanceDistortion::fit(
        tv::distortion::measure_substitution_distortion(w.clip, max_distance),
        5);
  }
  return w;
}

std::vector<tvc::CellResult> sweep_traced(
    Tracer& tracer, const tvc::SweepSpec& spec,
    const std::vector<const tvc::Workload*>& workloads,
    tv::util::ThreadPool& pool, std::ostream& out) {
  spec.validate();
  if (spec.gop_sizes.size() != 1 || workloads.size() != spec.motions.size()) {
    throw std::invalid_argument{"sweep_traced: one workload per motion"};
  }
  const std::vector<tvc::SweepCell> cells = tvc::enumerate_cells(spec);
  for (const tvc::SweepCell& cell : cells) {
    tvc::PipelineConfig pipeline;
    pipeline.device = cell.device;
    pipeline.transport = cell.transport;
    pipeline.channel = cell.channel;
    pipeline.fps = spec.fps;
    tvc::validate(pipeline);
  }
  tvc::JsonlSink sink{out};
  sink.begin(spec);
  OrderedFlush<tvc::CellResult> flush{tracer, cells.size()};
  auto run_cell = [&](std::size_t index) {
    const tvc::SweepCell& cell = cells[index];
    tvc::ExperimentSpec es;
    es.policy = cell.policy;
    es.pipeline.device = cell.device;
    es.pipeline.transport = cell.transport;
    es.pipeline.channel = cell.channel;
    es.pipeline.fps = spec.fps;
    es.repetitions = spec.repetitions;
    es.seed = cell.seed;
    es.evaluate_quality = spec.evaluate_quality;
    es.sensitivity_fraction = tvc::default_sensitivity(cell.motion);
    const auto motion_at = std::find(spec.motions.begin(), spec.motions.end(),
                                     cell.motion) -
                           spec.motions.begin();
    auto result = std::make_unique<tvc::CellResult>();
    result->cell = cell;
    result->result = run_experiment_traced(
        tracer, es, *workloads[static_cast<std::size_t>(motion_at)], pool);
    flush.store(index, std::move(result),
                [&](const tvc::CellResult& r) { sink.cell(r); });
  };
  pool.parallel_for(cells.size(), run_cell);
  sink.end();
  return flush.take();
}

std::vector<tv::cell::CapacityPoint> capacity_traced(
    Tracer& tracer, const tv::cell::CapacitySpec& spec,
    const tvc::Workload& workload, tv::util::ThreadPool& pool,
    std::ostream& out) {
  spec.validate();
  tv::cell::CellJsonlSink sink{out};
  sink.begin(spec);
  std::vector<tv::cell::CapacityPoint> points;
  for (std::size_t i = 0; i < spec.flow_counts.size(); ++i) {
    tv::cell::CellSpec cell = spec.base;
    cell.flows = spec.flow_counts[i];
    tv::cell::CapacityPoint point;
    point.index = i;
    point.flows = cell.flows;
    point.result = run_cell_traced(tracer, cell, workload, pool);
    {
      Scope span{tracer, Layer::kCoreSink, 1};
      sink.point(point);
    }
    points.push_back(std::move(point));
  }
  sink.end();
  return points;
}

std::vector<tv::analysis::LeakageCellResult> leakage_traced(
    Tracer& tracer, const tv::analysis::LeakageSpec& spec,
    tv::util::ThreadPool& pool, std::ostream& out) {
  spec.validate();
  const std::vector<tv::analysis::LeakageCell> cells =
      tv::analysis::enumerate_leakage_cells(spec);
  const tvc::Workload workload =
      build_workload_traced(tracer, spec.motion, spec.gop_size, spec.frames,
                            spec.seed, spec.pipeline.fps);
  tv::analysis::LeakageJsonlSink sink{out};
  sink.begin(spec);
  OrderedFlush<tv::analysis::LeakageCellResult> flush{tracer, cells.size()};
  auto run_one = [&](std::size_t index) {
    std::unique_ptr<tv::analysis::LeakageCellResult> result;
    {
      Scope span{tracer, Layer::kAnalysisCell, 1};
      result = std::make_unique<tv::analysis::LeakageCellResult>(
          tv::analysis::run_leakage_cell(spec, cells[index], workload));
    }
    flush.store(index, std::move(result),
                [&](const tv::analysis::LeakageCellResult& r) {
                  sink.cell(r);
                });
  };
  pool.parallel_for(cells.size(), run_one);
  sink.end();
  return flush.take();
}

}  // namespace perfbench
