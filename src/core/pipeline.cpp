#include "core/pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/pipeline_stages.hpp"
#include "util/rng.hpp"

namespace tv::core {

const char* to_string(Transport t) {
  switch (t) {
    case Transport::kRtpUdp: return "RTP/UDP";
    case Transport::kHttpTcp: return "HTTP/TCP";
  }
  return "?";
}

const char* transport_key(Transport t) {
  switch (t) {
    case Transport::kRtpUdp: return "udp";
    case Transport::kHttpTcp: return "tcp";
  }
  return "?";
}

Transport transport_from_string(std::string_view name) {
  if (name == "udp" || name == "RTP/UDP") return Transport::kRtpUdp;
  if (name == "tcp" || name == "HTTP/TCP") return Transport::kHttpTcp;
  throw std::invalid_argument{"unknown transport: " + std::string{name} +
                              " (udp|tcp)"};
}

const char* to_string(FailureEvent::Kind kind) {
  switch (kind) {
    case FailureEvent::Kind::kApOutage: return "ap-outage";
    case FailureEvent::Kind::kDeadlineExpired: return "deadline-expired";
    case FailureEvent::Kind::kMaxAttempts: return "max-attempts";
    case FailureEvent::Kind::kException: return "exception";
  }
  return "?";
}

double TransferResult::mean_delay_s() const {
  if (timings.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& t : timings) acc += t.delay();
  return acc / static_cast<double>(timings.size());
}

void validate(const PipelineConfig& config) {
  if (config.mac_success_prob <= 0.0 || config.mac_success_prob > 1.0 ||
      config.backoff_rate <= 0.0 || config.fps <= 0.0) {
    throw std::invalid_argument{"simulate_transfer: bad config"};
  }
  if (config.tcp_backoff_multiplier < 1.0 || config.tcp_backoff_max_s < 0.0 ||
      config.packet_deadline_s < 0.0 || config.degrade_sojourn_s < 0.0) {
    throw std::invalid_argument{"simulate_transfer: bad resilience config"};
  }
  if (config.channel) {
    config.channel->receiver.validate();
    config.channel->eavesdropper.validate();
    for (const auto& o : config.channel->outages) {
      if (o.start_s < 0.0 || o.duration_s < 0.0) {
        throw std::invalid_argument{"outage window: negative start/duration"};
      }
    }
  }
}

TransferResult simulate_transfer(const PipelineConfig& config,
                                 const std::vector<net::VideoPacket>& packets,
                                 std::uint64_t seed, TraceSink* trace) {
  if (packets.empty()) {
    throw std::invalid_argument{"simulate_transfer: no packets"};
  }
  validate(config);
  util::Rng rng{seed};

  TransferResult result;
  result.timings.resize(packets.size());
  result.receiver_delivered.assign(packets.size(), false);
  result.eavesdropper_captured.assign(packets.size(), false);
  result.degraded_cleartext.assign(packets.size(), false);

  // The transfer is the composition of the five stages; every random draw
  // happens inside a stage, in the documented fixed order, from the single
  // per-transfer RNG (plus the channel chains' own derived streams).
  ProducerStage producer{config, trace};
  PolicyGateStage gate{config, trace};
  ServiceStage service{config, trace};
  ChannelStage channel{config, seed, trace};
  TransportStage transport{config, trace};

  // --- Producer: arrival times. -------------------------------------------
  for (std::size_t i = 0; i < packets.size(); ++i) {
    result.timings[i].arrival = producer.release(packets[i], i, rng);
  }

  // --- Server: FIFO policy gate + service + channel + transport. ----------
  double server_free = 0.0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const auto& p = packets[i];
    PacketTiming& t = result.timings[i];
    t.service_start = std::max(t.arrival, server_free);

    const bool degraded = gate.degrade(p, i, t.arrival, t.service_start);
    if (degraded) {
      result.degraded_cleartext[i] = true;
      ++result.degraded_packets;
    }

    // T_e (eq. 15): only for packets the policy still wants encrypted.
    if (p.encrypted && !degraded) {
      t.encryption_s = service.encrypt(p, i, t.service_start, rng);
      result.encrypted_payload_bytes += p.payload.size();
    }

    const double tx_mean = service.transmission_mean_s(p);

    bool receiver_got = false;
    bool eaves_got = false;
    const char* terminal = "lost";
    int attempts = 0;
    double backoff_total = 0.0;
    double tx_total = 0.0;
    double recovery_total = 0.0;
    double now = t.service_start + t.encryption_s;
    for (;;) {
      ++attempts;
      // T_b (eqs. 6-7).
      const double t_b = service.backoff(i, now, rng);
      backoff_total += t_b;
      now += t_b;
      // T_t (eq. 16).
      const double tx = service.transmit(i, tx_mean, now, rng);
      tx_total += tx;
      now += tx;
      // Channel outcome at each listener (independent positions).
      const ChannelStage::Outcome outcome =
          channel.attempt(i, now, eaves_got, rng);
      if (outcome.in_outage) ++result.outage_drops;
      eaves_got = outcome.eavesdropper_heard;
      if (outcome.receiver_ok) {
        receiver_got = true;
        terminal = "deliver";
        break;
      }
      if (!transport.reliable()) {
        if (outcome.in_outage) {
          terminal = "outage";
          result.failures.push_back({FailureEvent::Kind::kApOutage, now,
                                     static_cast<std::int64_t>(i), -1});
        }
        break;
      }
      const TransportStage::Decision decision =
          transport.after_loss(i, attempts, now, t.arrival);
      if (decision.verdict == TransportStage::Verdict::kMaxAttempts) {
        terminal = "max_attempts";
        result.failures.push_back({FailureEvent::Kind::kMaxAttempts, now,
                                   static_cast<std::int64_t>(i), -1});
        break;
      }
      if (decision.verdict == TransportStage::Verdict::kDeadline) {
        // Give up instead of blocking the queue behind a doomed packet.
        terminal = "deadline";
        ++result.deadline_drops;
        result.failures.push_back({FailureEvent::Kind::kDeadlineExpired, now,
                                   static_cast<std::int64_t>(i), -1});
        break;
      }
      recovery_total += decision.wait_s;
      now += decision.wait_s;
      ++result.retransmissions;
    }

    t.backoff_s = backoff_total;
    t.transmit_s = tx_total;
    t.attempts = attempts;
    t.completion = t.service_start + t.encryption_s + backoff_total +
                   tx_total + recovery_total +
                   transport.per_packet_overhead_s();
    server_free = t.completion;
    result.airtime_s += tx_total;
    result.receiver_delivered[i] = receiver_got;
    result.eavesdropper_captured[i] = eaves_got;
    transport.finish(i, terminal, t.completion, t.delay());
  }

  const double first = result.timings.front().arrival;
  double last = 0.0;
  for (const auto& t : result.timings) last = std::max(last, t.completion);
  result.duration_s = last - first;
  return result;
}

}  // namespace tv::core
