// Cross-implementation equivalence for the shared service law.
//
// sim::simulate_sender must draw its T_e/T_b/T_t stages through
// core::ServiceModel on the documented derived RNG streams — the same model
// core::simulate_transfer composes.  This test captures the simulator's
// per-packet service events and replays the exact draw sequence against
// ServiceModel on independently re-derived streams: every captured stage
// value must match bit-for-bit.  If either side stops consuming the shared
// model (or reorders its draws), the replay diverges immediately.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "core/service_model.hpp"
#include "core/trace.hpp"
#include "sim/sender_sim.hpp"
#include "util/rng.hpp"

namespace tv::sim {
namespace {

// The simulator's per-stage stream tags (sender_sim.cpp).
constexpr std::uint64_t kClassStream = 3;
constexpr std::uint64_t kEncryptStream = 4;
constexpr std::uint64_t kBackoffStream = 5;
constexpr std::uint64_t kTransmitStream = 6;

class CollectSink final : public core::TraceSink {
 public:
  void event(const core::TraceEvent& e) override { events.push_back(e); }
  std::vector<core::TraceEvent> events;
};

SenderSimSpec traced_spec() {
  SenderSimSpec spec;
  spec.arrivals = queueing::Mmpp2{50.0, 5.0, 2400.0, 160.0};
  spec.service.p_i = 0.15;
  spec.service.q_i = 1.0;
  spec.service.q_p = 0.25;  // both classes exercise the encrypt branch.
  spec.service.enc_i_mean = 0.45e-3;
  spec.service.enc_i_stddev = 0.05e-3;
  spec.service.enc_p_mean = 0.35e-3;
  spec.service.enc_p_stddev = 0.04e-3;
  spec.service.tx_i_mean = 1.2e-3;
  spec.service.tx_i_stddev = 1.2e-4;
  spec.service.tx_p_mean = 0.8e-3;
  spec.service.tx_p_stddev = 0.8e-4;
  spec.service.success_prob = 0.9;
  spec.service.backoff_rate = 3000.0;
  spec.events = 4000;
  spec.warmup = 400;
  spec.batches = 20;
  spec.seed = 2025;
  return spec;
}

TEST(ServiceModelEquivalence, SenderSimDrawsAreTheSharedModelsDraws) {
  SenderSimSpec spec = traced_spec();
  CollectSink sink;
  spec.trace = &sink;
  (void)simulate_sender(spec);
  ASSERT_FALSE(sink.events.empty());

  // Replay: independent streams derived exactly as the simulator derives
  // them, consumed through the shared core::ServiceModel.
  util::Rng class_rng{util::derive_seed(spec.seed, kClassStream)};
  util::Rng enc_rng{util::derive_seed(spec.seed, kEncryptStream)};
  util::Rng backoff_rng{util::derive_seed(spec.seed, kBackoffStream)};
  util::Rng tx_rng{util::derive_seed(spec.seed, kTransmitStream)};
  const core::ServiceModel model{spec.service.success_prob,
                                 spec.service.backoff_rate};

  const auto& p = spec.service;
  std::size_t idx = 0;
  std::int64_t packet = 0;
  std::uint64_t encrypted_packets = 0;
  while (idx < sink.events.size()) {
    const bool is_i = class_rng.bernoulli(p.p_i);
    const bool encrypted = class_rng.bernoulli(is_i ? p.q_i : p.q_p);
    if (encrypted) {
      ++encrypted_packets;
      ASSERT_LT(idx, sink.events.size());
      const auto& e = sink.events[idx++];
      ASSERT_EQ(std::string_view{e.kind}, "encrypt") << "packet " << packet;
      EXPECT_EQ(e.packet, packet);
      EXPECT_EQ(e.value_s,
                core::ServiceModel::draw_encryption(
                    enc_rng, is_i ? p.enc_i_mean : p.enc_p_mean,
                    is_i ? p.enc_i_stddev : p.enc_p_stddev));
    }
    {
      ASSERT_LT(idx, sink.events.size());
      const auto& e = sink.events[idx++];
      ASSERT_EQ(std::string_view{e.kind}, "backoff") << "packet " << packet;
      EXPECT_EQ(e.packet, packet);
      EXPECT_EQ(e.value_s, model.draw_backoff(backoff_rng));
    }
    {
      ASSERT_LT(idx, sink.events.size());
      const auto& e = sink.events[idx++];
      ASSERT_EQ(std::string_view{e.kind}, "transmit") << "packet " << packet;
      EXPECT_EQ(e.packet, packet);
      EXPECT_EQ(e.value_s, core::ServiceModel::draw_transmission(
                               tx_rng, is_i ? p.tx_i_mean : p.tx_p_mean,
                               is_i ? p.tx_i_stddev : p.tx_p_stddev));
    }
    ++packet;
  }
  // Every started packet (warmup included) emitted a full stage record,
  // and the mixed policy exercised both the encrypt and the clear path.
  EXPECT_EQ(packet, static_cast<std::int64_t>(spec.events + spec.warmup));
  EXPECT_GT(encrypted_packets, 0u);
  EXPECT_LT(encrypted_packets, static_cast<std::uint64_t>(packet));
}

TEST(ServiceModelEquivalence, TracingLeavesSenderStatisticsUntouched) {
  SenderSimSpec plain = traced_spec();
  SenderSimSpec traced = traced_spec();
  CollectSink sink;
  traced.trace = &sink;
  const SenderSimResult a = simulate_sender(plain);
  const SenderSimResult b = simulate_sender(traced);
  EXPECT_EQ(a.wait.mean(), b.wait.mean());
  EXPECT_EQ(a.service.mean(), b.service.mean());
  EXPECT_EQ(a.sojourn.mean(), b.sojourn.mean());
  EXPECT_EQ(a.busy_time, b.busy_time);
  EXPECT_EQ(a.served, b.served);
  EXPECT_FALSE(sink.events.empty());
}

}  // namespace
}  // namespace tv::sim
