// The shared service law (core::ServiceModel): the single owner of the
// per-packet T_e/T_b/T_t draws of eq. (3).  These tests pin the Gaussian
// draw primitives bit-for-bit against the underlying Rng calls, hold the
// backoff draw (model and pipeline) to the compound-geometric law of
// eqs. (6)-(7), and cross-check that the transfer pipeline's per-packet
// timings are exactly what the model's stage events report.
#include "core/service_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "backoff_law.hpp"
#include "core/pipeline.hpp"
#include "core/trace.hpp"
#include "util/arena.hpp"

namespace tv::core {
namespace {

util::Arena& test_arena() {
  static util::Arena arena;  // lives for the whole test binary.
  return arena;
}

/// Trace sink that keeps every event.
class CollectSink final : public TraceSink {
 public:
  void event(const TraceEvent& e) override { events.push_back(e); }
  std::vector<TraceEvent> events;
};

TEST(ServiceModel, EncryptionIsTheClampedGaussianDraw) {
  util::Rng a{42};
  util::Rng b{42};
  // Exactly one Gaussian variate, clamped at zero (eq. 15).
  const double drawn = ServiceModel::draw_encryption(a, 4.5e-4, 5e-5);
  const double expected = std::max(0.0, b.gaussian(4.5e-4, 5e-5));
  EXPECT_EQ(drawn, expected);
  // The streams stay aligned afterwards: next raw words agree.
  EXPECT_EQ(a(), b());
}

TEST(ServiceModel, EncryptionClampsNegativeTailsToZero) {
  util::Rng rng{7};
  // A hugely negative mean forces the clamp on every draw.
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(ServiceModel::draw_encryption(rng, -1.0, 1e-3), 0.0);
  }
}

TEST(ServiceModel, DeviceConvenienceUsesCalibratedMeanAndJitter) {
  const DeviceProfile device = samsung_galaxy_s2();
  const auto alg = crypto::Algorithm::kAes256;
  util::Rng a{9};
  util::Rng b{9};
  const double drawn = ServiceModel::draw_encryption(a, device, alg, 1400);
  const double expected = ServiceModel::draw_encryption(
      b, device.encryption_seconds(alg, 1400),
      device.speed(alg).jitter_stddev_s);
  EXPECT_EQ(drawn, expected);
}

TEST(ServiceModel, BackoffDrawMatchesTheCompoundGeometricLaw) {
  std::uint64_t seed = 12;
  for (const double p : backoff_law::kSuccessProbs) {
    const ServiceModel model{p, 500.0};
    util::Rng rng{seed};
    util::Rng replay{seed++};
    backoff_law::expect_follows_law(model.backoff(), 200000, [&] {
      // The model owns no law of its own: every draw is the shared
      // closed-form sampler's, variate for variate.
      const double t_b = model.draw_backoff(rng);
      EXPECT_EQ(t_b, model.backoff().sample(replay));
      return t_b;
    });
    EXPECT_EQ(rng(), replay());
  }
}

TEST(ServiceModel, PipelineBackoffFollowsTheCompoundGeometricLaw) {
  // End to end: every T_b the transfer pipeline charges (one per attempt;
  // UDP makes one attempt per packet) is a draw from the configured law.  The traced backoff values are the very doubles
  // added to the packet's service interval (see
  // ServiceModelEquivalence.PipelineTimingsMatchTheTracedDraws below).
  std::vector<net::VideoPacket> packets;
  for (int f = 0; f < 4000; ++f) {
    net::VideoPacket p;
    p.sequence = static_cast<std::uint16_t>(f);
    p.frame_index = f;
    p.fragment_index = 0;
    p.fragment_count = 1;
    p.is_i_frame = f % 30 == 0;
    p.allocate_payload(test_arena(), 64, 0x5a);
    packets.push_back(std::move(p));
  }
  std::uint64_t seed = 0;
  for (const double p : backoff_law::kSuccessProbs) {
    PipelineConfig config;
    config.mac_success_prob = p;
    CollectSink sink;
    std::vector<double> waits;
    while (waits.size() < 100000) {
      sink.events.clear();
      (void)simulate_transfer(config, packets, seed++, &sink);
      for (const auto& e : sink.events) {
        if (e.stage == Stage::kService &&
            std::string_view{e.kind} == "backoff") {
          waits.push_back(e.value_s);
        }
      }
    }
    std::size_t next = 0;
    backoff_law::expect_follows_law(
        queueing::BackoffModel{p, config.backoff_rate}, waits.size(),
        [&] { return waits[next++]; });
  }
}

TEST(ServiceModel, RejectsDegenerateMacParameters) {
  EXPECT_THROW(ServiceModel(0.0, 420.0), std::invalid_argument);
  EXPECT_THROW(ServiceModel(1.5, 420.0), std::invalid_argument);
  EXPECT_THROW(ServiceModel(0.5, 0.0), std::invalid_argument);
  EXPECT_THROW(ServiceModel(0.5, -420.0), std::invalid_argument);
  EXPECT_NO_THROW(ServiceModel(1.0, 420.0));
}

TEST(ServiceModel, TransmissionIsTheClampedGaussianDraw) {
  util::Rng a{77};
  util::Rng b{77};
  EXPECT_EQ(ServiceModel::draw_transmission(a, 1.2e-3, 1.2e-4),
            std::max(0.0, b.gaussian(1.2e-3, 1.2e-4)));
  EXPECT_EQ(ServiceModel::draw_transmission(a, -5.0, 1e-6), 0.0);
}

// --- Pipeline-side equivalence: the service events the model emits are ---
// --- exactly the quantities simulate_transfer records per packet.      ---

std::vector<net::VideoPacket> encrypted_packets() {
  std::vector<net::VideoPacket> packets;
  for (int f = 0; f < 8; ++f) {
    net::VideoPacket p;
    p.sequence = static_cast<std::uint16_t>(f);
    p.frame_index = f;
    p.fragment_index = 0;
    p.fragment_count = 1;
    p.is_i_frame = f % 4 == 0;
    p.encrypted = p.is_i_frame;
    p.allocate_payload(test_arena(), p.is_i_frame ? 1400 : 300, 0x5a);
    packets.push_back(std::move(p));
  }
  return packets;
}

TEST(ServiceModelEquivalence, PipelineTimingsMatchTheTracedDraws) {
  PipelineConfig config;
  config.device = samsung_galaxy_s2();
  CollectSink sink;
  const auto packets = encrypted_packets();
  const auto result = simulate_transfer(config, packets, 31, &sink);

  std::map<std::int64_t, double> encrypt_s;
  std::map<std::int64_t, double> service_sum_s;
  for (const auto& e : sink.events) {
    if (e.stage != Stage::kService) continue;
    if (std::string_view{e.kind} == "encrypt") encrypt_s[e.packet] = e.value_s;
    service_sum_s[e.packet] += e.value_s;
  }
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const auto& t = result.timings[i];
    const auto idx = static_cast<std::int64_t>(i);
    // T_e lands bit-for-bit in the packet's timing record; clear packets
    // draw no encryption event at all.
    if (packets[i].encrypted) {
      ASSERT_TRUE(encrypt_s.count(idx));
      EXPECT_EQ(encrypt_s[idx], t.encryption_s);
    } else {
      EXPECT_FALSE(encrypt_s.count(idx));
    }
    // The traced T_e + T_b + T_t account for the whole service interval
    // (UDP, lossless: one attempt, no recovery waits, no ARQ overhead).
    EXPECT_NEAR(t.completion - t.service_start, service_sum_s[idx], 1e-12);
  }
}

TEST(ServiceModelEquivalence, TracingDoesNotPerturbTheTransfer) {
  PipelineConfig config;
  config.device = samsung_galaxy_s2();
  const auto packets = encrypted_packets();
  CollectSink sink;
  const auto traced = simulate_transfer(config, packets, 555, &sink);
  const auto plain = simulate_transfer(config, packets, 555, nullptr);
  ASSERT_EQ(traced.timings.size(), plain.timings.size());
  for (std::size_t i = 0; i < plain.timings.size(); ++i) {
    EXPECT_EQ(traced.timings[i].arrival, plain.timings[i].arrival);
    EXPECT_EQ(traced.timings[i].completion, plain.timings[i].completion);
    EXPECT_EQ(traced.timings[i].encryption_s, plain.timings[i].encryption_s);
  }
  EXPECT_FALSE(sink.events.empty());
}

}  // namespace
}  // namespace tv::core
