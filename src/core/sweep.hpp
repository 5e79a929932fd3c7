// Parallel sweep engine: every figure in the paper is a cartesian grid
// over (motion, GOP, policy, algorithm, device, transport, channel) with
// repeated experiments per cell.  SweepSpec declares such a grid once;
// SweepRunner executes its cells on a work-stealing thread pool, shares
// the expensive encode/packetize step through a build-once WorkloadCache,
// and streams results through a ResultSink in deterministic cell order.
//
// Determinism contract: per-cell seeds are derived purely from the root
// seed (util::derive_seed) and per-repetition statistics are folded in a
// fixed order (run_experiment), so a run at any thread count — including
// fully serial — produces bit-identical statistics and sink output.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <tuple>
#include <vector>

#include "core/experiment.hpp"
#include "util/once_map.hpp"
#include "util/sink.hpp"

namespace tv::util {
class ThreadPool;
}

namespace tv::core {

/// Declarative cartesian experiment grid over the paper's axes.
struct SweepSpec {
  std::vector<video::MotionLevel> motions{video::MotionLevel::kLow};
  std::vector<int> gop_sizes{30};
  /// Policy shapes (mode + fraction); each is combined with every entry of
  /// `algorithms`, so the shape's own `algorithm` field is ignored.
  std::vector<policy::EncryptionPolicy> policies{
      {policy::Mode::kIFrames, crypto::Algorithm::kAes256, 0.0}};
  std::vector<crypto::Algorithm> algorithms{crypto::Algorithm::kAes256};
  std::vector<DeviceProfile> devices{samsung_galaxy_s2()};
  std::vector<Transport> transports{Transport::kRtpUdp};
  /// Channel-knob axis; std::nullopt is the clean i.i.d. link.
  std::vector<std::optional<ChannelModel>> channels{std::nullopt};

  int frames = 300;
  int repetitions = 20;
  double fps = 30.0;
  bool evaluate_quality = true;
  /// Collect per-stage aggregates per cell (ExperimentResult::stage_stats);
  /// the sinks then emit them as extra columns/fields.  Off by default so
  /// existing sweep outputs (and the golden file) stay byte-identical.
  bool collect_stage_stats = false;
  std::uint64_t seed = 1;  ///< root seed; also the workload seed.

  /// How per-cell experiment seeds derive from the root seed:
  ///  * kPerCell (default): splitmix-derived from (seed, cell index), so
  ///    every cell runs an independent random stream.
  ///  * kShared: every cell reuses the root seed verbatim — the historical
  ///    behaviour of the figure benches, kept so their tables reproduce.
  enum class SeedMode { kPerCell, kShared };
  SeedMode seed_mode = SeedMode::kPerCell;

  /// Throws std::invalid_argument on empty axes or unusable scalar knobs.
  void validate() const;
  [[nodiscard]] std::size_t cell_count() const;
};

/// One fully-resolved grid point, in row-major axis order
/// (motion, gop, policy, algorithm, device, transport, channel).
struct SweepCell {
  std::size_t index = 0;  ///< row-major position in the grid.
  video::MotionLevel motion = video::MotionLevel::kLow;
  int gop_size = 30;
  policy::EncryptionPolicy policy;  ///< algorithm axis already applied.
  DeviceProfile device;
  Transport transport = Transport::kRtpUdp;
  std::optional<ChannelModel> channel;
  std::uint64_t seed = 0;  ///< derived per-cell experiment seed.
};

/// Expand the grid (row-major, with derived seeds).  Pure.
[[nodiscard]] std::vector<SweepCell> enumerate_cells(const SweepSpec& spec);

struct CellResult {
  SweepCell cell;
  ExperimentResult result;
};

/// Consumer of sweep results (contract in util/sink.hpp).
using ResultSink = util::Sink<SweepSpec, CellResult>;
using CollectSink = util::CollectSink<SweepSpec, CellResult>;

/// Human-readable aligned table.
class TableSink : public util::StreamSink<SweepSpec, CellResult> {
 public:
  using StreamSink::StreamSink;
  void begin(const SweepSpec& spec) override;
  void cell(const CellResult& result) override;

 private:
  bool quality_ = true;
};

/// One JSON object per cell per line, full statistics at %.17g so two runs
/// can be compared byte for byte.
class JsonlSink : public util::StreamSink<SweepSpec, CellResult> {
 public:
  using StreamSink::StreamSink;
  void cell(const CellResult& result) override;
};

/// Spreadsheet-friendly CSV with a header row.
class CsvSink : public util::StreamSink<SweepSpec, CellResult> {
 public:
  using StreamSink::StreamSink;
  void begin(const SweepSpec& spec) override;
  void cell(const CellResult& result) override;

 private:
  bool stage_stats_ = false;
};

/// Thread-safe build-once workload cache keyed by (motion, gop, frames,
/// seed, fps).  Concurrent requests for the same key block on one build;
/// the result is shared read-only.
class WorkloadCache {
 public:
  [[nodiscard]] std::shared_ptr<const Workload> get(video::MotionLevel motion,
                                                    int gop_size, int frames,
                                                    std::uint64_t seed,
                                                    double fps = 30.0);
  /// Number of distinct workloads built (or being built) so far.
  [[nodiscard]] std::size_t size() const { return workloads_.size(); }

 private:
  using Key = std::tuple<int, int, int, std::uint64_t, double>;
  util::OnceMap<Key, std::shared_ptr<const Workload>> workloads_;
};

struct SweepSummary {
  std::size_t cells = 0;
  std::size_t workloads = 0;  ///< distinct workloads in the cache.
  unsigned threads = 1;
  double wall_s = 0.0;
};

/// Executes SweepSpecs.  Reuse one runner across related sweeps to share
/// its workload cache.
class SweepRunner {
 public:
  /// `pool == nullptr` runs serially (through the same fold paths, so the
  /// statistics are identical either way).
  explicit SweepRunner(util::ThreadPool* pool = nullptr) : pool_(pool) {}

  /// Runs every cell, streaming results to `sink` in cell order.
  /// Validates the spec and every cell's pipeline configuration up front.
  SweepSummary run(const SweepSpec& spec, ResultSink& sink);

  [[nodiscard]] WorkloadCache& workloads() { return cache_; }

 private:
  util::ThreadPool* pool_;
  WorkloadCache cache_;
};

}  // namespace tv::core
