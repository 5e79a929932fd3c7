#include "cell/cell.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <utility>

#include "crypto/suite.hpp"
#include "util/arena.hpp"
#include "energy/energy_model.hpp"
#include "util/format.hpp"
#include "util/thread_pool.hpp"
#include "wifi/gilbert_elliott.hpp"

namespace tv::cell {

namespace {

using util::fmt;
using util::json_double;
using util::json_escape;
using util::json_stats;

/// Deterministic per-flow IV sized for the cipher (same derivation idiom
/// as run_experiment's).
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

/// Mean on-air bytes (payload + RTP/UDP/IP) of a packetization.
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
  return static_cast<double>(i_packets) /
         static_cast<double>(packets.size());
}

}  // namespace

void CellSpec::validate() const {
  if (flows < 1) throw std::invalid_argument{"CellSpec: flows < 1"};
  if (background_stations < 0) {
    throw std::invalid_argument{"CellSpec: background_stations < 0"};
  }
  if (motions.empty() || gop_sizes.empty() || policies.empty() ||
      algorithms.empty() || devices.empty() || deadlines_s.empty()) {
    throw std::invalid_argument{"CellSpec: empty axis"};
  }
  for (const policy::EncryptionPolicy& p : policies) p.validate();
  for (int gop : gop_sizes) {
    if (gop < 1 || frames < gop) {
      throw std::invalid_argument{"CellSpec: frames must cover every GOP"};
    }
  }
  if (fps <= 0.0) throw std::invalid_argument{"CellSpec: fps <= 0"};
  if (repetitions < 1) {
    throw std::invalid_argument{"CellSpec: repetitions < 1"};
  }
  if (cw_min < 1 || backoff_stages < 0 || background_cw_min < 1 ||
      background_stages < 0) {
    throw std::invalid_argument{"CellSpec: bad MAC parameters"};
  }
  if (channel_error_prob < 0.0 || channel_error_prob >= 1.0) {
    throw std::invalid_argument{"CellSpec: channel_error_prob outside [0,1)"};
  }
  if (fade_prob < 0.0 || fade_prob >= 1.0 || fade_error_prob < 0.0 ||
      fade_error_prob >= 1.0 || mean_fade_reps < 1.0) {
    throw std::invalid_argument{"CellSpec: bad fading parameters"};
  }
}

FlowConfig resolve_flow(const CellSpec& spec, std::size_t flow) {
  FlowConfig c;
  c.motion = spec.motions[flow % spec.motions.size()];
  c.gop_size = spec.gop_sizes[flow % spec.gop_sizes.size()];
  c.policy = spec.policies[flow % spec.policies.size()];
  c.policy.algorithm = spec.algorithms[flow % spec.algorithms.size()];
  c.device = spec.devices[flow % spec.devices.size()];
  c.deadline_s = spec.deadlines_s[flow % spec.deadlines_s.size()];
  return c;
}

CellResult run_cell(const CellSpec& spec, core::WorkloadCache& cache,
                    util::ThreadPool* pool) {
  spec.validate();
  const std::size_t n = static_cast<std::size_t>(spec.flows);

  // Resolve every flow's axes and (cached) workload.
  std::vector<FlowConfig> configs(n);
  std::vector<std::shared_ptr<const core::Workload>> workloads(n);
  for (std::size_t f = 0; f < n; ++f) {
    configs[f] = resolve_flow(spec, f);
    workloads[f] = cache.get(configs[f].motion, configs[f].gop_size,
                             spec.frames, spec.seed, spec.fps);
  }

  // The scheduler's view of each flow: first moments of eq. (3)'s stages.
  std::vector<FlowDemand> demands(n);
  double population_wire_bytes = 0.0;
  for (std::size_t f = 0; f < n; ++f) {
    const core::Workload& w = *workloads[f];
    FlowDemand& d = demands[f];
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
    d.transmission_mean_s = wifi::transmission_time_s(
        spec.phy, static_cast<std::size_t>(wire));
  }

  ContentionConfig contention;
  contention.video = {spec.flows, spec.cw_min, spec.backoff_stages};
  contention.background = {spec.background_stations, spec.background_cw_min,
                           spec.background_stages};
  contention.phy = spec.phy;
  contention.mean_wire_bytes = population_wire_bytes / static_cast<double>(n);
  contention.channel_error_prob = spec.channel_error_prob;

  const DeadlineScheduler scheduler{spec.scheduler};
  const ScheduleResult schedule = scheduler.schedule(demands, contention);
  const ContentionSolution& sol = schedule.contention;

  // Per-flow block-fading state, one coherence block per repetition.  The
  // chains are derived for every flow — admitted or not — so the stream
  // assignment is independent of scheduling decisions.
  const std::size_t reps = static_cast<std::size_t>(spec.repetitions);
  std::vector<std::vector<bool>> faded(n);
  for (std::size_t f = 0; f < n; ++f) {
    if (spec.fade_prob > 0.0) {
      wifi::GilbertElliottParams fade;
      fade.mean_loss_prob = spec.fade_prob;
      fade.mean_burst_length = spec.mean_fade_reps;
      fade.good_loss_prob = 0.0;
      fade.bad_loss_prob = 1.0;
      wifi::GilbertElliottChannel chain{
          fade, util::derive_seed(spec.seed, kFadeStream, f)};
      faded[f] = chain.trace(reps);
    } else {
      faded[f].assign(reps, false);
    }
  }

  // Fail fast on configuration mistakes before burning simulation time:
  // the deepest fade must still leave a usable MAC success probability.
  {
    const double worst_fade = spec.fade_prob > 0.0 ? spec.fade_error_prob : 0.0;
    core::PipelineConfig probe = spec.pipeline;
    probe.fps = spec.fps;
    probe.phy = spec.phy;
    probe.mac_success_prob = sol.mac_success_prob * (1.0 - worst_fade);
    probe.backoff_rate = sol.backoff_rate;
    core::validate(probe);
  }

  // Flows are mutually independent: each reads only shared const state and
  // writes its own outcome slot; the fold below walks the slots in flow
  // order, so a pooled run is bit-identical to the serial one.
  std::vector<FlowOutcome> outcomes(n);
  const bool instrumented = spec.trace != nullptr;

  auto run_flow = [&](std::size_t f) {
    FlowOutcome& out = outcomes[f];
    const FlowConfig& cfg = configs[f];
    const FlowDecision& decision = schedule.flows[f];
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
    for (std::size_t r = 0; r < reps; ++r) {
      if (faded[f][r]) ++out.faded_repetitions;
    }
    if (!decision.admitted) return;  // deferred: no airtime, no statistics.

    const core::Workload& w = *workloads[f];
    // Per-flow arena: one bump-allocated clone of the shared plaintext
    // packets, encrypted in place for this flow only, dropped wholesale
    // when the task ends.  Keeps 10k-flow sweeps off the global heap.
    util::Arena arena;
    std::vector<net::VideoPacket> packets = net::clone_packets(w.packets, arena);
    const std::vector<bool> selected = out.policy.select(packets);
    const std::uint64_t cipher_seed =
        util::derive_seed(spec.seed, kCipherStream, f);
    const auto cipher =
        crypto::make_cipher_from_seed(out.policy.algorithm, cipher_seed);
    const auto flow_iv = flow_iv_for(*cipher, cipher_seed);
    net::encrypt_selected(packets, selected, *cipher, flow_iv);

    const int frame_count = static_cast<int>(w.stream.frames.size());
    const video::Decoder decoder{w.codec};

    core::PipelineConfig base = spec.pipeline;
    base.device = cfg.device;
    base.algorithm = out.policy.algorithm;
    base.fps = spec.fps;
    base.phy = spec.phy;
    base.backoff_rate = sol.backoff_rate;

    for (std::size_t r = 0; r < reps; ++r) {
      // The repetition's coherence block: a fade multiplies extra error
      // into both the MAC attempt success (more backoff) and the
      // delivery probability (more loss at the receiver).
      const double e = faded[f][r] ? spec.fade_error_prob : 0.0;
      core::PipelineConfig pipeline = base;
      pipeline.mac_success_prob = sol.mac_success_prob * (1.0 - e);
      pipeline.receiver_loss_prob =
          1.0 - (1.0 - base.receiver_loss_prob) * (1.0 - e);

      std::optional<core::StampTraceSink> stamp;
      if (instrumented) {
        stamp.emplace(spec.trace, nullptr,
                      static_cast<int>(f) * 1000 + static_cast<int>(r));
      }
      core::TransferResult transfer;
      try {
        transfer = core::simulate_transfer(
            pipeline, packets, flow_transfer_seed(spec.seed, f, r),
            stamp ? &*stamp : nullptr);
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

      const energy::EnergyBreakdown energy = energy::transfer_energy(
          cfg.device.power_coefficients(out.policy.algorithm),
          transfer.duration_s, transfer.encrypted_payload_bytes,
          transfer.airtime_s);
      out.power_w.add(energy::mean_power_w(energy, transfer.duration_s));
      out.energy_j.add(energy.total_j());

      if (spec.evaluate_quality) {
        out.receiver_psnr_db.add(
            core::score_received(
                w, decoder,
                net::reassemble(packets, transfer.receiver_delivered,
                                frame_count, cipher.get(), flow_iv))
                .psnr_db);
        out.eavesdropper_psnr_db.add(
            core::score_received(
                w, decoder,
                net::reassemble(packets, transfer.eavesdropper_captured,
                                frame_count, nullptr, flow_iv))
                .psnr_db);
      }
    }
  };

  util::for_each_index(instrumented ? nullptr : pool, n, run_flow);

  // Deterministic fold in flow order.
  CellResult result;
  result.flows = spec.flows;
  result.background = spec.background_stations;
  result.admitted = schedule.admitted;
  result.deferred = schedule.deferred;
  result.total_degrade_steps = schedule.total_degrade_steps;
  result.schedule_iterations = schedule.iterations;
  result.contention = sol;
  for (FlowOutcome& out : outcomes) {
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

void CapacitySpec::validate() const {
  if (flow_counts.empty()) {
    throw std::invalid_argument{"CapacitySpec: no flow counts"};
  }
  for (int flows : flow_counts) {
    if (flows < 1) {
      throw std::invalid_argument{"CapacitySpec: flow count < 1"};
    }
  }
  CellSpec probe = base;
  probe.flows = flow_counts.front();
  probe.validate();
}

void CellTableSink::begin(const CapacitySpec& spec) {
  quality_ = spec.base.evaluate_quality;
  out_ << "flows  adm  def  deg  p_coll   p_s     Mb/s/flow  E[W] ms   ";
  if (quality_) out_ << "rxPSNR   evPSNR   ";
  out_ << "W mean   J mean    miss%\n";
}

void CellTableSink::point(const CapacityPoint& p) {
  const CellResult& r = p.result;
  out_ << fmt("%5d  %3d  %3d  %3d  %7.4f  %6.4f  %9.4f  %8.3f  ", p.flows,
              r.admitted, r.deferred, r.total_degrade_steps,
              r.contention.collision_prob, r.contention.mac_success_prob,
              r.contention.per_flow_throughput_mbps, r.delay_ms.mean());
  if (quality_) {
    out_ << fmt("%7.2f  %7.2f  ", r.receiver_psnr_db.mean(),
                r.eavesdropper_psnr_db.mean());
  }
  out_ << fmt("%7.3f  %8.3f  %5.1f\n", r.power_w.mean(), r.energy_j.mean(),
              100.0 * r.deadline_miss_fraction());
}

void CellJsonlSink::point(const CapacityPoint& p) {
  const CellResult& r = p.result;
  out_ << "{\"point\":" << p.index << ",\"flows\":" << p.flows
       << ",\"background\":" << r.background
       << ",\"admitted\":" << r.admitted << ",\"deferred\":" << r.deferred
       << ",\"degrade_steps\":" << r.total_degrade_steps
       << ",\"schedule_iterations\":" << r.schedule_iterations
       << fmt(",\"contention\":{\"contenders\":%d,\"collision_prob\":%.17g,"
              "\"mac_success_prob\":%.17g,\"backoff_rate\":%.17g,"
              "\"mean_slot_s\":%.17g,\"per_flow_throughput_mbps\":%.17g,"
              "\"iterations\":%d}",
              r.contention.contenders, r.contention.collision_prob,
              r.contention.mac_success_prob, r.contention.backoff_rate,
              r.contention.mean_slot_s,
              r.contention.per_flow_throughput_mbps, r.contention.dcf.iterations)
       << ",\"delay_ms\":" << json_stats(r.delay_ms)
       << ",\"duration_s\":" << json_stats(r.duration_s)
       << ",\"power_w\":" << json_stats(r.power_w)
       << ",\"energy_j\":" << json_stats(r.energy_j)
       << ",\"receiver_psnr_db\":" << json_stats(r.receiver_psnr_db)
       << ",\"eavesdropper_psnr_db\":" << json_stats(r.eavesdropper_psnr_db)
       << fmt(",\"deadline_miss_fraction\":%.17g",
              r.deadline_miss_fraction())
       << ",\"flows_detail\":[";
  for (std::size_t f = 0; f < r.flow_outcomes.size(); ++f) {
    const FlowOutcome& o = r.flow_outcomes[f];
    if (f > 0) out_ << ",";
    out_ << "{\"flow\":" << o.index << ",\"motion\":\""
         << video::to_string(o.motion) << "\",\"gop\":" << o.gop_size
         << ",\"requested\":\"" << json_escape(o.requested_policy.spec())
         << "\",\"policy\":\"" << json_escape(o.policy.spec())
         << "\",\"algorithm\":\"" << crypto::to_string(o.policy.algorithm)
         << "\",\"device\":\"" << json_escape(o.device_key)
         << "\",\"admitted\":" << (o.admitted ? "true" : "false")
         << ",\"degrade_steps\":" << o.degrade_steps
         << fmt(",\"deadline_s\":%.17g,\"predicted_s\":%.17g,",
                o.deadline_s, o.predicted_completion_s)
         << "\"slack_s\":" << json_double(o.slack_s)
         << ",\"faded\":" << o.faded_repetitions
         << ",\"completed\":" << o.completed_repetitions
         << ",\"failed\":" << o.failed_repetitions
         << ",\"misses\":" << o.deadline_misses
         << ",\"delay_ms\":" << json_stats(o.delay_ms)
         << ",\"duration_s\":" << json_stats(o.duration_s)
         << ",\"power_w\":" << json_stats(o.power_w)
         << ",\"energy_j\":" << json_stats(o.energy_j)
         << ",\"receiver_psnr_db\":" << json_stats(o.receiver_psnr_db)
         << ",\"eavesdropper_psnr_db\":" << json_stats(o.eavesdropper_psnr_db)
         << "}";
  }
  out_ << "]}\n";
}

void CellCsvSink::begin(const CapacitySpec& /*spec*/) {
  out_ << "flows,background,admitted,deferred,degrade_steps,collision_prob,"
          "mac_success_prob,backoff_rate,per_flow_throughput_mbps,"
          "delay_ms_mean,delay_ms_ci95,duration_s_mean,power_w_mean,"
          "energy_j_mean,receiver_psnr_db_mean,eavesdropper_psnr_db_mean,"
          "deadline_miss_fraction\n";
}

void CellCsvSink::point(const CapacityPoint& p) {
  const CellResult& r = p.result;
  out_ << fmt("%d,%d,%d,%d,%d,%.17g,%.17g,%.17g,%.17g,", p.flows,
              r.background, r.admitted, r.deferred, r.total_degrade_steps,
              r.contention.collision_prob, r.contention.mac_success_prob,
              r.contention.backoff_rate,
              r.contention.per_flow_throughput_mbps)
       << fmt("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n",
              r.delay_ms.mean(), r.delay_ms.ci95_halfwidth(),
              r.duration_s.mean(), r.power_w.mean(), r.energy_j.mean(),
              r.receiver_psnr_db.mean(), r.eavesdropper_psnr_db.mean(),
              r.deadline_miss_fraction());
}

CellSweepSummary CellRunner::run(const CapacitySpec& spec, CellSink& sink) {
  spec.validate();
  const auto t0 = std::chrono::steady_clock::now();
  sink.begin(spec);

  CellSweepSummary summary;
  summary.points = spec.flow_counts.size();
  summary.threads = pool_ != nullptr ? pool_->thread_count() : 1;

  // Points run strictly in order (the sink contract); the pool
  // parallelizes the flows inside each point, which is where the work is.
  for (std::size_t i = 0; i < spec.flow_counts.size(); ++i) {
    CellSpec cell = spec.base;
    cell.flows = spec.flow_counts[i];
    CapacityPoint point;
    point.index = i;
    point.flows = cell.flows;
    point.result = run_cell(cell, cache_, pool_);
    sink.point(point);
  }
  sink.end();

  summary.workloads = cache_.size();
  summary.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return summary;
}

}  // namespace tv::cell
