#include "tracer.hpp"

namespace perfbench {

const char* layer_key(Layer layer) {
  switch (layer) {
    case Layer::kVideoRender: return "video.render";
    case Layer::kVideoEncode: return "video.encode";
    case Layer::kNetPacketize: return "net.packetize";
    case Layer::kCoreCharacterize: return "core.characterize";
    case Layer::kDistortionFit: return "distortion.fit";
    case Layer::kNetClone: return "net.clone";
    case Layer::kCryptoEncrypt: return "crypto.encrypt";
    case Layer::kCryptoDecrypt: return "crypto.decrypt";
    case Layer::kCoreTransfer: return "core.transfer";
    case Layer::kEnergy: return "energy.model";
    case Layer::kNetReassemble: return "net.reassemble";
    case Layer::kVideoDecode: return "video.decode";
    case Layer::kVideoQuality: return "video.quality";
    case Layer::kCorePredict: return "core.predict";
    case Layer::kCoreSink: return "core.sink";
    case Layer::kCellSchedule: return "cell.schedule";
    case Layer::kCellContention: return "cell.contention";
    case Layer::kLiveRunLoad: return "live.run_load";
    case Layer::kAnalysisCell: return "analysis.cell";
    case Layer::kCount: break;
  }
  return "unknown";
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::vector<Span>& Tracer::local_buffer() {
  // One buffer per thread.  The harness keeps a single Tracer alive for
  // the whole process, so the cached pointer never outlives its owner.
  thread_local const Tracer* owner = nullptr;
  thread_local std::vector<Span>* buffer = nullptr;
  if (owner != this || buffer == nullptr) {
    auto fresh = std::make_unique<std::vector<Span>>();
    fresh->reserve(1 << 14);
    std::lock_guard lock{mu_};
    buffer = fresh.get();
    owner = this;
    buffers_.push_back(std::move(fresh));
  }
  return *buffer;
}

void Tracer::record(Layer layer, std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t units) {
  local_buffer().push_back(Span{layer, start_ns, end_ns, units});
}

std::vector<Span> Tracer::collect() const {
  std::lock_guard lock{mu_};
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

void Tracer::clear() {
  std::lock_guard lock{mu_};
  for (const auto& buffer : buffers_) buffer->clear();
}

}  // namespace perfbench
