// The sender transfer decomposed into composable stages (Fig. 3):
//
//   producer -> policy gate -> service (T_e + T_b + T_t) -> channel
//                                   ^----- transport/ARQ retry loop ----'
//
// Each stage is a small object with explicit inputs and outputs so a new
// transport or channel model plugs in without touching the others:
//
//   * ProducerStage     — release times: frame cadence, scheduling jitter,
//                         per-segment read latency;
//   * PolicyGateStage   — queue-pressure degradation (selective encryption
//                         collapses to I-frame-only under pressure);
//   * ServiceStage      — the eq. (3) service law, via the shared
//                         core::ServiceModel (the only place T_e/T_b/T_t
//                         are drawn);
//   * ChannelStage      — per-attempt receiver/eavesdropper outcomes:
//                         i.i.d. Bernoulli or Gilbert-Elliott chains plus
//                         scheduled AP outages;
//   * TransportStage    — the ARQ policy: fire-and-forget RTP/UDP or the
//                         reliable HTTP/TCP stand-in with exponential
//                         retransmission backoff and per-packet deadlines.
//
// Determinism contract: the stages draw from the RNGs handed to them in a
// fixed order, so core::simulate_transfer composed from these stages is
// byte-identical to the historical monolithic implementation (pinned by
// the sweep golden file and the CLI byte-identity checks).  Every stage
// takes an optional TraceSink; with the sink null the stages cost one
// never-taken branch per event site and consume identical randomness.
//
// The per-packet methods are defined inline: they are the transfer hot
// path, and keeping them visible to simulate_transfer lets the compiler
// fold the whole stage composition into one loop.  The target is baseline
// x86-64 (no FMA), so cross-boundary inlining cannot contract any
// floating-point expression — every draw stays bit-identical (pinned by
// the sweep/cell goldens).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <optional>

#include "core/pipeline.hpp"
#include "core/service_model.hpp"
#include "core/trace.hpp"
#include "util/rng.hpp"

namespace tv::core {

/// Producer: packets of frame f become available at f/fps; successive
/// segments of the same frame are separated by their read latency
/// (overhead + bytes), and each frame's release carries OS scheduling
/// jitter.  The producer is sequential: it cannot start a frame before it
/// has finished reading the previous one.
class ProducerStage {
 public:
  ProducerStage(const PipelineConfig& config, TraceSink* trace)
      : config_(config),
        trace_(trace),
        // The exponential rates are loop-invariant; computing each division
        // once up front yields the exact double the per-packet division
        // produced, so the draws are unchanged bit for bit.
        read_rate_(1.0 / config.read_overhead_s),
        jitter_rate_(config.frame_jitter_mean_s > 0.0
                         ? 1.0 / config.frame_jitter_mean_s
                         : 0.0) {}

  /// Arrival time of the next packet.  Draws the frame-boundary jitter and
  /// the per-segment read latency from `rng`.
  [[nodiscard]] double release(const net::VideoPacket& packet,
                               std::size_t index, util::Rng& rng) {
    if (packet.frame_index != current_frame_) {
      current_frame_ = packet.frame_index;
      const double jitter = config_.frame_jitter_mean_s > 0.0
                                ? rng.exponential(jitter_rate_)
                                : 0.0;
      frame_cursor_ = std::max(
          frame_cursor_,
          static_cast<double>(packet.frame_index) / config_.fps + jitter);
    }
    const double read_time =
        rng.exponential(read_rate_) +
        config_.read_per_byte_s * static_cast<double>(packet.payload.size());
    frame_cursor_ += read_time;
    if (trace_ != nullptr) {
      trace_->event({Stage::kProducer, "release",
                     static_cast<std::int64_t>(index), -1, frame_cursor_,
                     read_time});
    }
    return frame_cursor_;
  }

 private:
  const PipelineConfig& config_;
  TraceSink* trace_;
  double read_rate_;
  double jitter_rate_;
  double frame_cursor_ = 0.0;
  int current_frame_ = -1;
};

/// Policy gate: when a packet's queueing delay exceeds the configured
/// sojourn threshold, encrypted non-I packets are shipped in clear — the
/// selective-encryption policy degrades to I-frame-only under pressure.
class PolicyGateStage {
 public:
  PolicyGateStage(const PipelineConfig& config, TraceSink* trace)
      : config_(config), trace_(trace) {}

  /// True when `packet` should be downgraded to cleartext.  Emits one
  /// policy-gate event per packet (value: the queue wait that drove the
  /// decision).
  [[nodiscard]] bool degrade(const net::VideoPacket& packet,
                             std::size_t index, double arrival_s,
                             double service_start_s) const {
    const double queue_wait = service_start_s - arrival_s;
    const bool degraded = config_.degrade_sojourn_s > 0.0 &&
                          packet.encrypted && !packet.is_i_frame &&
                          queue_wait > config_.degrade_sojourn_s;
    if (trace_ != nullptr) {
      trace_->event({Stage::kPolicyGate, degraded ? "degrade" : "pass",
                     static_cast<std::int64_t>(index), -1, service_start_s,
                     queue_wait});
    }
    return degraded;
  }

 private:
  const PipelineConfig& config_;
  TraceSink* trace_;
};

/// Service: the per-packet T_e/T_b/T_t draws of eq. (3), delegated to the
/// shared core::ServiceModel.
class ServiceStage {
 public:
  ServiceStage(const PipelineConfig& config, TraceSink* trace);

  [[nodiscard]] const ServiceModel& model() const { return model_; }

  /// T_e for an encrypted packet (mean from the calibrated DeviceProfile).
  /// The mean is a pure function of the payload size, so it is memoized the
  /// same way as the transmission mean below.
  [[nodiscard]] double encrypt(const net::VideoPacket& packet,
                               std::size_t index, double now_s,
                               util::Rng& rng) const {
    const double t_e = ServiceModel::draw_encryption(
        rng, cached_mean(enc_cache_, enc_cache_used_, packet.payload.size(),
                         [this](std::size_t n) {
                           return config_.device.encryption_seconds(
                               config_.algorithm, n);
                         }),
        enc_jitter_stddev_s_);
    if (trace_ != nullptr) {
      trace_->event({Stage::kService, "encrypt",
                     static_cast<std::int64_t>(index), -1, now_s, t_e});
    }
    return t_e;
  }

  /// PHY mean on-air time for this packet (computed once per packet; the
  /// per-attempt draws jitter around it).  Memoized per distinct wire
  /// size — the PHY law is a pure function of it, so the cached double
  /// is bit-identical to a fresh computation.
  [[nodiscard]] double transmission_mean_s(
      const net::VideoPacket& packet) const {
    return cached_mean(tx_cache_, tx_cache_used_, packet.wire_bytes(),
                       [this](std::size_t n) {
                         return wifi::transmission_time_s(config_.phy, n);
                       });
  }

  /// One MAC backoff round (T_b) for a packet whose attempt starts at
  /// now_s.
  [[nodiscard]] double backoff(std::size_t index, double now_s,
                               util::Rng& rng) const {
    const double t_b = model_.draw_backoff(rng);
    if (trace_ != nullptr) {
      trace_->event({Stage::kService, "backoff",
                     static_cast<std::int64_t>(index), -1, now_s + t_b, t_b});
    }
    return t_b;
  }

  /// One on-air transmission draw (T_t).
  [[nodiscard]] double transmit(std::size_t index, double mean_s,
                                double now_s, util::Rng& rng) const {
    const double t_t = ServiceModel::draw_transmission(
        rng, mean_s, config_.tx_jitter_stddev_s);
    if (trace_ != nullptr) {
      trace_->event({Stage::kService, "transmit",
                     static_cast<std::int64_t>(index), -1, now_s + t_t, t_t});
    }
    return t_t;
  }

 private:
  using MeanCache = std::array<std::pair<std::size_t, double>, 8>;

  /// Linear-scan memo for a pure size -> seconds law.  A stream carries a
  /// handful of distinct packet sizes (full-MTU fragments + per-frame
  /// tails), and the cached value is the exact double a fresh computation
  /// would produce, so replay bytes are unchanged.
  template <typename Law>
  static double cached_mean(MeanCache& cache, std::size_t& used,
                            std::size_t bytes, Law law) {
    for (std::size_t i = 0; i < used; ++i) {
      if (cache[i].first == bytes) return cache[i].second;
    }
    const double mean = law(bytes);
    if (used < cache.size()) cache[used++] = {bytes, mean};
    return mean;
  }

  const PipelineConfig& config_;
  TraceSink* trace_;
  ServiceModel model_;
  double enc_jitter_stddev_s_;
  mutable MeanCache tx_cache_{};
  mutable std::size_t tx_cache_used_ = 0;
  mutable MeanCache enc_cache_{};
  mutable std::size_t enc_cache_used_ = 0;
};

/// Channel: decides, per on-air attempt, whether the receiver and the
/// eavesdropper each hear the packet.  With a ChannelModel configured the
/// outcomes come from per-listener Gilbert-Elliott chains (seeded from the
/// transfer seed) and scheduled AP outages; otherwise from the legacy
/// i.i.d. Bernoulli draws on the transfer RNG.
class ChannelStage {
 public:
  ChannelStage(const PipelineConfig& config, std::uint64_t transfer_seed,
               TraceSink* trace);

  struct Outcome {
    bool receiver_ok = false;
    bool eavesdropper_heard = false;
    bool in_outage = false;
  };

  /// One attempt at time `now_s`.  The eavesdropper's draw is skipped once
  /// it has already captured the packet (`eavesdropper_already`), exactly
  /// mirroring the historical short-circuit, so chain states and RNG
  /// consumption are unchanged.
  [[nodiscard]] Outcome attempt(std::size_t index, double now_s,
                                bool eavesdropper_already, util::Rng& rng) {
    Outcome out;
    if (config_.channel) {
      out.in_outage = wifi::in_outage(config_.channel->outages, now_s);
      if (out.in_outage) {
        out.receiver_ok = false;
        out.eavesdropper_heard = eavesdropper_already;
      } else {
        out.receiver_ok = !receiver_->lose_packet();
        out.eavesdropper_heard =
            eavesdropper_already ? true : !eavesdropper_->lose_packet();
      }
    } else {
      out.receiver_ok = !rng.bernoulli(config_.receiver_loss_prob);
      out.eavesdropper_heard =
          eavesdropper_already
              ? true
              : !rng.bernoulli(config_.eavesdropper_loss_prob);
    }
    if (trace_ != nullptr) {
      const char* kind =
          out.in_outage ? "outage" : (out.receiver_ok ? "deliver" : "loss");
      trace_->event({Stage::kChannel, kind, static_cast<std::int64_t>(index),
                     -1, now_s, 0.0});
      if (out.eavesdropper_heard && !eavesdropper_already) {
        trace_->event({Stage::kChannel, "eavesdrop",
                       static_cast<std::int64_t>(index), -1, now_s, 0.0});
      }
    }
    return out;
  }

 private:
  const PipelineConfig& config_;
  TraceSink* trace_;
  std::optional<wifi::GilbertElliottChannel> receiver_;
  std::optional<wifi::GilbertElliottChannel> eavesdropper_;
};

/// Transport/ARQ: RTP/UDP fires and forgets; the HTTP/TCP stand-in
/// retransmits with exponential backoff, capped waits, a retransmission
/// budget, and an optional per-packet deadline.
class TransportStage {
 public:
  TransportStage(const PipelineConfig& config, TraceSink* trace)
      : config_(config), trace_(trace) {}

  [[nodiscard]] bool reliable() const {
    return config_.transport == Transport::kHttpTcp;
  }
  [[nodiscard]] double per_packet_overhead_s() const {
    return reliable() ? config_.tcp_per_packet_overhead_s : 0.0;
  }

  enum class Verdict {
    kRetry,        ///< wait `wait_s`, then retransmit.
    kMaxAttempts,  ///< retransmission budget exhausted; give up.
    kDeadline,     ///< the retry would blow the per-packet deadline.
  };
  struct Decision {
    Verdict verdict = Verdict::kRetry;
    double wait_s = 0.0;  ///< recovery wait before the next attempt.
  };

  /// Decide what to do after a failed attempt (`attempts` made so far).
  [[nodiscard]] Decision after_loss(std::size_t index, int attempts,
                                    double now_s, double arrival_s) const {
    Decision decision;
    if (attempts >= config_.tcp_max_attempts) {
      decision.verdict = Verdict::kMaxAttempts;
      return decision;
    }
    // Loss recovery: the sender notices via dupacks/timeout and retries,
    // waiting exponentially longer each round (capped).
    double wait = config_.tcp_retx_penalty_s;
    for (int a = 1; a < attempts; ++a) wait *= config_.tcp_backoff_multiplier;
    if (config_.tcp_backoff_max_s > 0.0) {
      wait = std::min(wait, config_.tcp_backoff_max_s);
    }
    if (config_.packet_deadline_s > 0.0 &&
        (now_s + wait) - arrival_s > config_.packet_deadline_s) {
      decision.verdict = Verdict::kDeadline;
      return decision;
    }
    decision.wait_s = wait;
    if (trace_ != nullptr) {
      trace_->event({Stage::kTransport, "retransmit",
                     static_cast<std::int64_t>(index), -1, now_s, wait});
    }
    return decision;
  }

  /// Emit the packet's terminal transport event ("deliver", "lost",
  /// "deadline", "max_attempts", "outage"); value is the packet delay.
  void finish(std::size_t index, const char* kind, double completion_s,
              double delay_s) const {
    if (trace_ != nullptr) {
      trace_->event({core::Stage::kTransport, kind,
                     static_cast<std::int64_t>(index), -1, completion_s,
                     delay_s});
    }
  }

 private:
  const PipelineConfig& config_;
  TraceSink* trace_;
};

}  // namespace tv::core
