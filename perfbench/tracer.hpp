// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files around calls into the
// program's layers; nothing inside src/ is instrumented.  Each thread
// appends to its own buffer (registered once under a lock), so recording
// a span costs two clock reads and a vector push.  Buffers are read only
// after every pool task of the traced phase has finished.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Every layer boundary the traced run records, one entry per span kind.
enum class Layer : std::uint8_t {
  kVideoRender,
  kVideoEncode,
  kNetPacketize,
  kCoreCharacterize,  ///< lossless decode + base/null MSE of the build.
  kDistortionFit,
  kNetClone,          ///< clone_packets + policy select (+ pad).
  kCryptoEncrypt,
  kCryptoDecrypt,     ///< count only: its time lives in net.reassemble.
  kCoreTransfer,
  kEnergy,
  kNetReassemble,
  kVideoDecode,
  kVideoQuality,
  kCorePredict,
  kCoreSink,
  kCellSchedule,
  kCellContention,    ///< the schedule's solve sequence, re-run alone.
  kLiveRunLoad,
  kAnalysisCell,
  kCount
};

[[nodiscard]] const char* layer_key(Layer layer);

struct Span {
  Layer layer = Layer::kCount;
  std::int64_t start_ns = 0;  ///< steady_clock, relative to the epoch below.
  std::int64_t end_ns = 0;
  std::uint64_t units = 0;    ///< work done: frames, bytes, packets...
};

/// Keep one Tracer for the life of the process (see local_buffer()).
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::int64_t now_ns() const;
  void record(Layer layer, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t units);
  /// All spans of every thread, in no particular order.
  [[nodiscard]] std::vector<Span> collect() const;
  void clear();

 private:
  std::vector<Span>& local_buffer();

  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  ///< guards buffers_ (the list, not the spans).
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// RAII span: records [construction, destruction) into `tracer`.
class Scope {
 public:
  Scope(Tracer& tracer, Layer layer, std::uint64_t units = 0)
      : tracer_(tracer), layer_(layer), units_(units),
        start_ns_(tracer.now_ns()) {}
  ~Scope() { tracer_.record(layer_, start_ns_, tracer_.now_ns(), units_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_units(std::uint64_t units) { units_ = units; }

 private:
  Tracer& tracer_;
  Layer layer_;
  std::uint64_t units_;
  std::int64_t start_ns_;
};

}  // namespace perfbench
