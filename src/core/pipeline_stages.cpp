#include "core/pipeline_stages.hpp"

namespace tv::core {

ServiceStage::ServiceStage(const PipelineConfig& config, TraceSink* trace)
    : config_(config),
      trace_(trace),
      model_(config.mac_success_prob, config.backoff_rate),
      // The jitter sigma is per-algorithm, not per-packet; load it once so
      // the per-packet draw skips the profile lookup.
      enc_jitter_stddev_s_(config.device.speed(config.algorithm).jitter_stddev_s) {}

ChannelStage::ChannelStage(const PipelineConfig& config,
                           std::uint64_t transfer_seed, TraceSink* trace)
    : config_(config), trace_(trace) {
  if (config.channel) {
    // One chain per listener, seeded from the transfer seed so a given seed
    // reproduces the identical loss trace.
    util::Rng channel_seeder{transfer_seed ^ 0x6a09e667f3bcc908ULL};
    receiver_.emplace(config.channel->receiver, channel_seeder());
    eavesdropper_.emplace(config.channel->eavesdropper, channel_seeder());
  }
}

}  // namespace tv::core
