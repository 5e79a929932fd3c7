// Cell-scale multi-flow engine: N heterogeneous uploaders sharing one AP.
//
// The paper measures a single phone uploading through an open cafe WLAN;
// ROADMAP item 1 scales that to a cell.  A CellSpec describes N flows
// (clips, motion levels, GOPs, encryption policies, device profiles and
// deadlines assigned round-robin over the flow index), optional background
// cross-traffic stations, and a per-flow block-fading channel.  run_cell
//   * solves the heterogeneous Bianchi fixed point for the population
//     (cell/contention.hpp) to get each flow's collision probability,
//     backoff economics and saturation throughput share,
//   * lets the DeadlineScheduler (cell/scheduler.hpp) admit, degrade
//     (policy::degrade_step) or defer flows by deadline slack,
//   * and then runs every admitted flow's full transfer pipeline
//     (core::simulate_transfer) with the contention-derived MAC knobs and
//     its repetition's fading state, measuring E[W], duration, power,
//     energy and (optionally) receiver/eavesdropper PSNR.
//
// Determinism contract (same as core::SweepRunner): all seeds derive from
// the spec seed via util::derive_seed with the fixed stream tags below,
// flows run on independent slots folded in flow order, and a pooled run is
// bit-identical to the serial one at any thread count.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "cell/contention.hpp"
#include "cell/scheduler.hpp"
#include "core/sweep.hpp"
#include "util/rng.hpp"

namespace tv::util {
class ThreadPool;
}

namespace tv::cell {

// Per-purpose RNG substreams folded onto the spec seed (exposed so tests
// can reproduce any flow's exact random stream).
inline constexpr std::uint64_t kCipherStream = 0xC1;
inline constexpr std::uint64_t kFadeStream = 0xFA;
inline constexpr std::uint64_t kTransferStream = 0x7F;

/// The transfer seed of repetition `rep` of flow `flow`.
[[nodiscard]] constexpr std::uint64_t flow_transfer_seed(std::uint64_t seed,
                                                         std::uint64_t flow,
                                                         std::uint64_t rep) {
  return util::derive_seed(seed, kTransferStream, flow, rep);
}

/// One cell: N uploaders + background stations behind one AP.
struct CellSpec {
  int flows = 4;
  int background_stations = 0;

  // Heterogeneity axes, assigned to flow f as axis[f % axis.size()].
  std::vector<video::MotionLevel> motions{video::MotionLevel::kLow};
  std::vector<int> gop_sizes{15};
  /// Policy shapes; flow f combines policies[f % |policies|] with
  /// algorithms[f % |algorithms|] (the shape's own algorithm is ignored).
  std::vector<policy::EncryptionPolicy> policies{
      {policy::Mode::kIFrames, crypto::Algorithm::kAes256, 0.0}};
  std::vector<crypto::Algorithm> algorithms{crypto::Algorithm::kAes256};
  std::vector<core::DeviceProfile> devices{core::samsung_galaxy_s2()};
  /// Upload deadlines (s); <= 0 means the flow has none.
  std::vector<double> deadlines_s{0.0};

  int frames = 90;
  double fps = 30.0;
  int repetitions = 5;
  bool evaluate_quality = true;
  std::uint64_t seed = 1;  ///< root seed; also the workload seed.

  // MAC / PHY population parameters.
  int cw_min = 16;
  int backoff_stages = 6;
  int background_cw_min = 32;
  int background_stages = 6;
  wifi::PhyParameters phy{.data_rate_mbps = 4.0};
  /// Flat per-attempt channel error probability (all flows).
  double channel_error_prob = 0.0;

  // Block fading: each repetition of each flow is an independent coherence
  // block that is either Good or in a deep fade.  The per-flow fade
  // process is a Gilbert-Elliott chain over repetitions (stationary fade
  // probability `fade_prob`, mean `mean_fade_reps` consecutive faded
  // blocks), and a faded block multiplies an extra `fade_error_prob` into
  // the flow's per-attempt MAC success and its delivery probability.
  double fade_prob = 0.0;
  double mean_fade_reps = 1.0;
  double fade_error_prob = 0.25;

  SchedulerConfig scheduler;
  /// Base pipeline knobs (transport, producer model, loss floors...).
  /// Its device/algorithm/phy/mac_success_prob/backoff_rate fields are
  /// overwritten per flow from the axes and the contention solution.
  core::PipelineConfig pipeline;
  /// Optional per-packet stage tracing: events are stamped with the flow
  /// index (TraceEvent repetition field = flow * 1000 + repetition) and a
  /// traced run executes its flows serially so the stream is
  /// deterministic.
  core::TraceSink* trace = nullptr;

  /// Throws std::invalid_argument on empty axes or unusable knobs.
  void validate() const;
};

/// Flow f's resolved axis assignment.  Pure.
struct FlowConfig {
  video::MotionLevel motion = video::MotionLevel::kLow;
  int gop_size = 15;
  policy::EncryptionPolicy policy;  ///< algorithm axis already applied.
  core::DeviceProfile device;
  double deadline_s = 0.0;
};
[[nodiscard]] FlowConfig resolve_flow(const CellSpec& spec, std::size_t flow);

/// Measured + scheduled outcome of one flow.
struct FlowOutcome {
  std::size_t index = 0;
  video::MotionLevel motion = video::MotionLevel::kLow;
  int gop_size = 15;
  policy::EncryptionPolicy requested_policy;
  policy::EncryptionPolicy policy;  ///< after degradation.
  std::string device_key;
  double deadline_s = 0.0;

  bool admitted = true;
  int degrade_steps = 0;
  double predicted_completion_s = 0.0;
  double slack_s = 0.0;

  int completed_repetitions = 0;
  int failed_repetitions = 0;
  int faded_repetitions = 0;
  std::size_t deadline_misses = 0;  ///< reps whose duration beat no deadline.

  util::RunningStats delay_ms;
  util::RunningStats duration_s;
  util::RunningStats power_w;
  util::RunningStats energy_j;
  util::RunningStats receiver_psnr_db;
  util::RunningStats eavesdropper_psnr_db;
};

/// One cell's result: the contention solution, the schedule, per-flow
/// outcomes and aggregates over the admitted flows (folded in flow order).
struct CellResult {
  int flows = 0;
  int background = 0;
  int admitted = 0;
  int deferred = 0;
  int total_degrade_steps = 0;
  int schedule_iterations = 0;
  ContentionSolution contention;
  std::vector<FlowOutcome> flow_outcomes;

  util::RunningStats delay_ms;
  util::RunningStats duration_s;
  util::RunningStats power_w;
  util::RunningStats energy_j;
  util::RunningStats receiver_psnr_db;
  util::RunningStats eavesdropper_psnr_db;
  std::size_t deadline_misses = 0;
  std::size_t deadline_repetitions = 0;  ///< reps that had a deadline.
  [[nodiscard]] double deadline_miss_fraction() const {
    return deadline_repetitions > 0
               ? static_cast<double>(deadline_misses) /
                     static_cast<double>(deadline_repetitions)
               : 0.0;
  }
};

/// Run one cell.  Workloads come from (and are shared through) `cache`;
/// `pool` parallelizes the per-flow loop (bit-identical to serial).
[[nodiscard]] CellResult run_cell(const CellSpec& spec,
                                  core::WorkloadCache& cache,
                                  util::ThreadPool* pool = nullptr);

/// Capacity sweep: the same cell at increasing population sizes.
struct CapacitySpec {
  std::vector<int> flow_counts{1, 2, 4, 8};
  CellSpec base;  ///< its `flows` field is overwritten per point.

  void validate() const;
  [[nodiscard]] std::size_t point_count() const { return flow_counts.size(); }
};

struct CapacityPoint {
  std::size_t index = 0;
  int flows = 0;
  CellResult result;
};

/// Consumer of capacity-sweep points; same contract as util::Sink, with
/// point() in place of cell().
class CellSink {
 public:
  virtual ~CellSink() = default;
  virtual void begin(const CapacitySpec& /*spec*/) {}
  virtual void point(const CapacityPoint& point) = 0;
  virtual void end() {}
};

/// Human-readable aligned capacity table, one row per population size.
class CellTableSink : public CellSink {
 public:
  explicit CellTableSink(std::ostream& out) : out_(out) {}
  void begin(const CapacitySpec& spec) override;
  void point(const CapacityPoint& point) override;

 private:
  std::ostream& out_;
  bool quality_ = true;
};

/// One JSON object per point per line at %.17g (byte-comparable across
/// runs and thread counts), with a per-flow breakdown array.
class CellJsonlSink : public CellSink {
 public:
  explicit CellJsonlSink(std::ostream& out) : out_(out) {}
  void point(const CapacityPoint& point) override;

 private:
  std::ostream& out_;
};

/// Spreadsheet-friendly CSV, one row per point.
class CellCsvSink : public CellSink {
 public:
  explicit CellCsvSink(std::ostream& out) : out_(out) {}
  void begin(const CapacitySpec& spec) override;
  void point(const CapacityPoint& point) override;

 private:
  std::ostream& out_;
};

/// In-memory sink for tests and programmatic consumers.
class CellCollectSink : public CellSink {
 public:
  void point(const CapacityPoint& point) override {
    points.push_back(point);
  }
  std::vector<CapacityPoint> points;
};

struct CellSweepSummary {
  std::size_t points = 0;
  std::size_t workloads = 0;  ///< distinct workloads in the cache.
  unsigned threads = 1;
  double wall_s = 0.0;
};

/// Executes CapacitySpecs.  Points run in order (each reuses the shared
/// workload cache); the pool parallelizes the flows inside each point.
class CellRunner {
 public:
  explicit CellRunner(util::ThreadPool* pool = nullptr) : pool_(pool) {}

  CellSweepSummary run(const CapacitySpec& spec, CellSink& sink);

  [[nodiscard]] core::WorkloadCache& workloads() { return cache_; }

 private:
  util::ThreadPool* pool_;
  core::WorkloadCache cache_;
};

}  // namespace tv::cell
