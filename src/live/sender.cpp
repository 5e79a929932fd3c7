#include "live/sender.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/pipeline_stages.hpp"
#include "net/rtp.hpp"
#include "util/rng.hpp"

namespace tv::live {

void jitter_schedule(std::vector<double>& send_times_s, double stddev_s,
                     std::uint64_t seed) {
  if (stddev_s <= 0.0) return;
  // Its own derivation tag so the jitter stream never collides with the
  // service-model draws that produced the schedule.
  util::Rng rng{util::derive_seed(seed, 0x7177E4u)};
  for (double& t : send_times_s) {
    t += std::abs(rng.gaussian(0.0, stddev_s));
  }
}

double jitter_mean_delay_s(double stddev_s) {
  if (stddev_s <= 0.0) return 0.0;
  return stddev_s * std::sqrt(2.0 / 3.14159265358979323846);
}

std::vector<double> schedule_from_timings(
    const std::vector<core::PacketTiming>& timings) {
  std::vector<double> times;
  times.reserve(timings.size());
  for (const core::PacketTiming& t : timings) times.push_back(t.completion);
  return times;
}

PacedSchedule paced_schedule_from_service_model(
    const core::PipelineConfig& config,
    const std::vector<net::VideoPacket>& packets, std::uint64_t seed,
    core::TraceSink* trace) {
  util::Rng rng{seed};
  core::ProducerStage producer{config, trace};
  core::PolicyGateStage gate{config, trace};
  core::ServiceStage service{config, trace};
  PacedSchedule schedule;
  schedule.arrival_s.reserve(packets.size());
  schedule.send_s.reserve(packets.size());
  double clock = 0.0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const net::VideoPacket& p = packets[i];
    const double arrival = producer.release(p, i, rng);
    clock = std::max(clock, arrival);
    // The gate only affects whether T_e is paid here; live payloads keep
    // whatever encryption the caller applied.
    const bool degraded = gate.degrade(p, i, arrival, clock);
    if (p.encrypted && !degraded) {
      clock += service.encrypt(p, i, clock, rng);
    }
    clock += service.backoff(i, clock, rng);
    clock += service.transmit(i, service.transmission_mean_s(p), clock, rng);
    schedule.arrival_s.push_back(arrival);
    schedule.send_s.push_back(clock);
  }
  return schedule;
}

std::vector<double> schedule_from_service_model(
    const core::PipelineConfig& config,
    const std::vector<net::VideoPacket>& packets, std::uint64_t seed,
    core::TraceSink* trace) {
  return paced_schedule_from_service_model(config, packets, seed, trace)
      .send_s;
}

SenderSession::SenderSession(EventLoop& loop, UdpSocket& socket,
                             SenderConfig config,
                             const std::vector<net::VideoPacket>& packets,
                             std::vector<double> send_times,
                             std::function<void(const SenderReport&)> on_done)
    : loop_(loop),
      socket_(socket),
      config_(config),
      packets_(packets),
      send_times_(std::move(send_times)),
      on_done_(std::move(on_done)) {
  if (send_times_.size() != packets_.size()) {
    throw std::invalid_argument{"SenderSession: schedule size mismatch"};
  }
}

void SenderSession::start() {
  remaining_ = packets_.size();
  if (remaining_ == 0) {
    if (on_done_) on_done_(report_);
    return;
  }
  for (std::size_t i = 0; i < packets_.size(); ++i) {
    if (config_.trace != nullptr) {
      config_.trace->event({core::Stage::kProducer, "release",
                            static_cast<std::int64_t>(i), 0, send_times_[i], 0.0});
    }
    loop_.schedule_at(send_times_[i], [this, i] { send_packet(i); });
  }
}

void SenderSession::send_packet(std::size_t index) {
  const net::VideoPacket& p = packets_[index];
  // The packet's arena already holds the full wire image (header +
  // payload, marker synced by encrypt_selected).  Send it zero-copy when
  // the configured SSRC matches the pre-written one; otherwise copy once
  // and patch the 4 SSRC bytes in the scratch buffer.
  std::span<const std::uint8_t> wire = p.payload.wire();
  if (config_.ssrc != net::kDefaultSsrc &&
      wire.size() >= net::RtpHeader::kSize) {
    buffer_.assign(wire.begin(), wire.end());
    buffer_[8] = static_cast<std::uint8_t>(config_.ssrc >> 24);
    buffer_[9] = static_cast<std::uint8_t>((config_.ssrc >> 16) & 0xff);
    buffer_[10] = static_cast<std::uint8_t>((config_.ssrc >> 8) & 0xff);
    buffer_[11] = static_cast<std::uint8_t>(config_.ssrc & 0xff);
    wire = buffer_;
  }
  if (socket_.send_to(config_.destination, wire) != SendOutcome::kSent) {
    // Kernel buffer full, short write, or a queued ICMP refusal: retry
    // shortly (a real pacer would also back off).  The retry is a timer,
    // not a sleep, so virtual-clock runs stay deterministic.
    ++report_.kernel_retries;
    loop_.schedule_after(5e-4, [this, index] { send_packet(index); });
    return;
  }
  const double now = loop_.now_s();
  if (report_.packets_sent == 0) report_.first_send_s = now;
  report_.last_send_s = now;
  ++report_.packets_sent;
  report_.datagram_bytes_sent += wire.size();
  if (p.encrypted) ++report_.encrypted_packets;
  if (config_.trace != nullptr) {
    config_.trace->event({core::Stage::kTransport, "send",
                          static_cast<std::int64_t>(index), 0, now,
                          static_cast<double>(wire.size())});
  }
  if (--remaining_ == 0 && on_done_) on_done_(report_);
}

}  // namespace tv::live
