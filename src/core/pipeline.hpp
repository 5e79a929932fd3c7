// The sender/receiver/eavesdropper pipeline of Fig. 3, as a discrete-event
// simulation.
//
// Producer thread: reads video segments from "disk" into the send queue;
// packets of frame f arrive at f/fps plus per-read latencies, so I-frames
// produce the bursty phase-1 arrivals of the 2-MMPP and P-frames the
// sparse phase-2 arrivals.
// Consumer/server: FIFO; per packet the service is encryption time (if the
// policy selected it), MAC backoff (geometric collisions, exponential
// waits — eqs. 6-7, drawn in closed form), and transmission time —
// exactly the T = T_e + T_b + T_t of eq. (3).
// Channel: after the MAC wins the medium, independent channel errors decide
// whether the receiver and the eavesdropper each capture the packet.
// Transport: RTP/UDP (fire and forget) or the reliable ARQ stand-in for
// HTTP/TCP (Section 6.4) where lost packets are retransmitted and delays
// include the recovery time.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/device_profile.hpp"
#include "core/trace.hpp"
#include "net/packetizer.hpp"
#include "policy/policy.hpp"
#include "wifi/channel.hpp"
#include "wifi/gilbert_elliott.hpp"

namespace tv::core {

enum class Transport { kRtpUdp, kHttpTcp };

[[nodiscard]] const char* to_string(Transport t);

/// Short machine-readable key ("udp", "tcp") round-tripping through
/// transport_from_string; used by CLI flags and sweep result sinks.
[[nodiscard]] const char* transport_key(Transport t);

/// Parse "udp"/"tcp" (or the to_string display names).  Throws
/// std::invalid_argument on anything else.
[[nodiscard]] Transport transport_from_string(std::string_view name);

/// Opt-in degraded-network channel model.  When set on a PipelineConfig
/// it replaces the flat Bernoulli `receiver_loss_prob` /
/// `eavesdropper_loss_prob` knobs with per-listener Gilbert-Elliott
/// chains (bursty, correlated losses) and adds scheduled AP-outage
/// windows during which no listener hears anything.  With
/// `mean_burst_length <= 1` the chains degenerate to exactly the legacy
/// i.i.d. losses, so burstiness can be swept at a fixed loss rate.
struct ChannelModel {
  wifi::GilbertElliottParams receiver;
  wifi::GilbertElliottParams eavesdropper;
  std::vector<wifi::OutageWindow> outages;
};

/// Something that went wrong during a transfer (or, with repetition >= 0,
/// during one repetition of an experiment).  Recording these instead of
/// throwing is what lets a degraded-network run finish with partial
/// statistics.
struct FailureEvent {
  enum class Kind {
    kApOutage,         ///< packet swallowed by a scheduled AP outage.
    kDeadlineExpired,  ///< ARQ gave up: per-packet deadline exceeded.
    kMaxAttempts,      ///< ARQ gave up: retransmission budget exhausted.
    kException,        ///< a repetition threw; partial stats were kept.
  };
  Kind kind = Kind::kApOutage;
  double time_s = 0.0;
  std::int64_t packet_index = -1;  ///< -1 when not packet-specific.
  int repetition = -1;             ///< set by run_experiment.
};

[[nodiscard]] const char* to_string(FailureEvent::Kind kind);

/// Everything the sender-side DES needs besides the packets themselves.
struct PipelineConfig {
  DeviceProfile device;
  crypto::Algorithm algorithm = crypto::Algorithm::kAes256;
  Transport transport = Transport::kRtpUdp;
  double fps = 30.0;
  /// Producer read model: per-segment overhead + per-byte time.  The
  /// overhead is exponentially distributed (syscalls, JNI, disk cache),
  /// and each frame's release carries an exponential scheduling jitter —
  /// which is also what makes the 2-MMPP a good fit for the arrivals.
  double read_overhead_s = 180e-6;
  double read_per_byte_s = 22e-9;
  double frame_jitter_mean_s = 22e-3;
  /// MAC model (Section 4.2.2): per-attempt success and backoff wait rate.
  double mac_success_prob = 0.78;
  double backoff_rate = 420.0;  ///< lambda_b (1/s).
  /// PHY for transmission times (effective rate on a contended cafe WLAN).
  wifi::PhyParameters phy{.data_rate_mbps = 4.0};
  double tx_jitter_stddev_s = 20e-6;
  /// Independent channel-error loss probabilities per on-air packet
  /// (the legacy i.i.d. model, used whenever `channel` is not set).
  double receiver_loss_prob = 0.003;
  double eavesdropper_loss_prob = 0.01;
  /// Bursty-loss / AP-outage channel model (opt-in; see ChannelModel).
  std::optional<ChannelModel> channel;
  /// TCP mode: extra recovery latency charged per retransmission, plus a
  /// per-packet overhead for ACK processing and congestion-window pacing.
  double tcp_retx_penalty_s = 18e-3;
  double tcp_per_packet_overhead_s = 1.6e-3;
  int tcp_max_attempts = 8;
  /// ARQ resilience: each successive retransmission wait is the penalty
  /// scaled by this factor (1.0 = the legacy flat penalty), capped at
  /// `tcp_backoff_max_s`.
  double tcp_backoff_multiplier = 1.0;
  double tcp_backoff_max_s = 0.25;
  /// ARQ give-up: stop retransmitting a packet once its sojourn (arrival
  /// to projected completion) would exceed this deadline.  0 disables.
  double packet_deadline_s = 0.0;
  /// Graceful policy degradation: when a packet has waited in the send
  /// queue longer than this, encrypted non-I packets are sent in clear
  /// (I-frame-only encryption) to shed encryption latency.  0 disables.
  double degrade_sojourn_s = 0.0;
};

/// Per-packet timeline through the sender (timestamps in seconds).
struct PacketTiming {
  double arrival = 0.0;        ///< enqueued by the producer.
  double service_start = 0.0;  ///< head of queue.
  double encryption_s = 0.0;   ///< T_e (0 when not encrypted).
  double backoff_s = 0.0;      ///< T_b (summed over attempts in TCP mode).
  double transmit_s = 0.0;     ///< T_t (summed over attempts in TCP mode).
  double completion = 0.0;     ///< left the sender.
  int attempts = 1;            ///< transmissions (TCP mode may retransmit).

  [[nodiscard]] double delay() const { return completion - arrival; }
  [[nodiscard]] double service() const { return completion - service_start; }
};

/// Result of simulating one transfer.
struct TransferResult {
  std::vector<PacketTiming> timings;          ///< one per packet.
  std::vector<bool> receiver_delivered;
  std::vector<bool> eavesdropper_captured;
  std::vector<bool> degraded_cleartext;  ///< sent clear under queue pressure.
  double duration_s = 0.0;       ///< first arrival to last completion.
  double airtime_s = 0.0;        ///< radio-on time (all attempts).
  std::size_t encrypted_payload_bytes = 0;

  // Resilience accounting (all zero on a healthy network).
  std::vector<FailureEvent> failures;  ///< in packet order.
  std::size_t retransmissions = 0;     ///< ARQ retries across all packets.
  std::size_t deadline_drops = 0;      ///< packets abandoned past deadline.
  std::size_t outage_drops = 0;        ///< attempts swallowed by AP outages.
  std::size_t degraded_packets = 0;    ///< packets downgraded to cleartext.

  [[nodiscard]] double mean_delay_s() const;
  [[nodiscard]] double mean_delay_ms() const { return mean_delay_s() * 1e3; }
};

/// Throws std::invalid_argument on an unusable configuration (bad MAC /
/// rate / fps values, bad resilience knobs, unreachable channel-model
/// parameters).  Callers that degrade gracefully on *transient* failures
/// should validate up front so configuration mistakes still fail fast.
void validate(const PipelineConfig& config);

/// Simulate the transfer of an already policy-encrypted packet sequence.
/// `encrypted[i]` mirrors packets[i].encrypted (passed separately so the
/// caller can reuse one packetization across policies).
///
/// The transfer is composed from the stages in core/pipeline_stages.hpp
/// (producer -> policy gate -> service -> channel -> transport).  When
/// `trace` is non-null every stage emits TraceEvents into it; with it null
/// (the default) the run is byte-identical to an untraced build.
[[nodiscard]] TransferResult simulate_transfer(
    const PipelineConfig& config, const std::vector<net::VideoPacket>& packets,
    std::uint64_t seed, TraceSink* trace = nullptr);

}  // namespace tv::core
