// Shared harness for the per-figure reproduction benches.
//
// Every bench binary prints (a) the Table-1 style configuration banner,
// (b) the paper's rows/series with measured means, 95% confidence
// intervals, and the analytic prediction next to each measurement, and
// (c) a short "expected shape" note quoting what the paper reports.
// Absolute values are simulator-scale; the shapes are the reproduction
// target (see EXPERIMENTS.md).
//
// Figures that are cartesian grids run through BenchEngine, a thin wrapper
// over core::SweepRunner that executes every grid cell on a work-stealing
// thread pool (--threads=N; docs/sweeps.md).  The engine runs in
// SeedMode::kShared so the printed numbers are bit-identical to the
// historical serial benches at any thread count.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"

namespace tv::bench {

/// Command-line knobs shared by all figure benches.  Parsing runs through
/// a util::FlagSet registry, so every bench rejects the same unknown
/// options and prints the same generated --help text.
struct BenchOptions {
  int frames = 300;     ///< clip length (paper: 300 frames at 30 fps).
  int quality_reps = 5; ///< repetitions when decoding is involved.
  int delay_reps = 20;  ///< repetitions for timing-only experiments.
  std::uint64_t seed = 2013;
  unsigned threads = util::ThreadPool::default_thread_count();
  std::string json_path;  ///< --json=FILE: machine-readable sweep cells.
  bool csv = false;       ///< --csv: CSV sweep cells on stdout.
  bool quick = false;     ///< --quick preset was requested.

  /// The shared flag registry; benches with extra flags chain more
  /// registrations onto the returned set before calling parse_with().
  static util::FlagSet flag_set(const char* command) {
    util::FlagSet fs{command, "paper-figure reproduction bench"};
    fs.flag("frames", "N", "clip length in frames (default 300)")
        .flag("reps", "N", "repetitions for every experiment class")
        .flag("seed", "S", "root RNG seed (default 2013)")
        .flag("threads", "N", "worker threads for sweep grids")
        .flag("quick", "", "smaller frames/reps preset for smoke runs")
        .flag("json", "FILE", "write sweep cells as JSONL to FILE")
        .flag("csv", "", "print sweep cells as CSV after each table");
    return fs;
  }

  static BenchOptions parse(int argc, char** argv) {
    return parse_with(flag_set(argc > 0 ? argv[0] : "bench"), argc, argv);
  }

  /// Parse against a caller-extended registry (shared flags still apply).
  static BenchOptions parse_with(const util::FlagSet& fs, int argc,
                                 char** argv) {
    BenchOptions o;
    try {
      const auto args = util::Flags::parse(argc, argv);
      fs.check(args);
      if (args.get_bool("help", false)) {
        std::fputs(fs.help_text().c_str(), stdout);
        std::exit(0);
      }
      if (args.get_bool("quick", false)) {
        o.quick = true;
        o.frames = 120;
        o.quality_reps = 2;
        o.delay_reps = 5;
      }
      o.frames = args.get_int("frames", o.frames);
      if (args.has("reps")) {
        o.quality_reps = args.get_int("reps", o.quality_reps);
        o.delay_reps = o.quality_reps;
      }
      o.seed = args.get_uint64("seed", o.seed);
      const int threads = args.get_int("threads",
                                       static_cast<int>(o.threads));
      if (threads < 1) throw util::FlagError{"--threads must be >= 1"};
      o.threads = static_cast<unsigned>(threads);
      o.json_path = args.get("json", "");
      o.csv = args.get_bool("csv", false);
    } catch (const util::FlagError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::fputs(fs.help_text().c_str(), stderr);
      std::exit(2);
    }
    return o;
  }
};

/// Build-once cache for workloads shared across experiment configurations.
/// (Grid-shaped benches go through BenchEngine instead, which shares the
/// thread-safe core::WorkloadCache; this one serves the remaining serial
/// benches.)
class WorkloadCache {
 public:
  explicit WorkloadCache(const BenchOptions& options) : options_(options) {}

  const core::Workload& get(video::MotionLevel motion, int gop_size) {
    const auto key = std::make_pair(static_cast<int>(motion), gop_size);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      std::printf("# building %s-motion workload (GOP %d, %d frames)...\n",
                  video::to_string(motion), gop_size, options_.frames);
      std::fflush(stdout);
      it = cache_
               .emplace(key, core::build_workload(motion, gop_size,
                                                  options_.frames,
                                                  options_.seed))
               .first;
    }
    return it->second;
  }

 private:
  BenchOptions options_;
  std::map<std::pair<int, int>, core::Workload> cache_;
};

/// Sweep spec pre-filled with the bench conventions: clip length, rep
/// count for the experiment class, root seed, and — crucially — shared
/// seeding, so every cell reproduces the historical per-figure numbers.
inline core::SweepSpec base_spec(const BenchOptions& options, bool quality) {
  core::SweepSpec spec;
  spec.frames = options.frames;
  spec.repetitions = quality ? options.quality_reps : options.delay_reps;
  spec.seed = options.seed;
  spec.evaluate_quality = quality;
  spec.seed_mode = core::SweepSpec::SeedMode::kShared;
  return spec;
}

/// Fans sweep results out to the --json/--csv sinks next to the collector.
using TeeSink = util::TeeSink<core::SweepSpec, core::CellResult>;

/// Executes figure grids on the shared thread pool and accumulates a small
/// cells/wall-time tally for the end-of-run summary line.  With
/// --json=FILE / --csv the engine tees every cell into machine-readable
/// sinks alongside the in-memory results the figure printers consume.
class BenchEngine {
 public:
  explicit BenchEngine(const BenchOptions& options)
      : options_(options),
        pool_(options.threads > 1
                  ? std::make_unique<util::ThreadPool>(options.threads)
                  : nullptr),
        runner_(pool_.get()) {
    if (!options.json_path.empty()) {
      json_out_.open(options.json_path);
      if (!json_out_) {
        std::fprintf(stderr, "error: cannot open --json file '%s'\n",
                     options.json_path.c_str());
        std::exit(2);
      }
      json_sink_ = std::make_unique<core::JsonlSink>(json_out_);
    }
    if (options.csv) {
      csv_sink_ = std::make_unique<core::CsvSink>(std::cout);
    }
  }

  /// Runs the grid and returns results in row-major cell order.
  std::vector<core::CellResult> run(const core::SweepSpec& spec) {
    core::CollectSink collect;
    TeeSink tee;
    tee.add(&collect);
    tee.add(json_sink_.get());
    tee.add(csv_sink_.get());
    const auto summary = runner_.run(spec, tee);
    cells_ += summary.cells;
    wall_s_ += summary.wall_s;
    return std::move(collect.results);
  }

  [[nodiscard]] util::ThreadPool* pool() { return pool_.get(); }
  [[nodiscard]] const BenchOptions& options() const { return options_; }

  void print_summary() const {
    std::printf("\n# engine: %zu cells on %u thread(s), %.2f s in sweeps\n",
                cells_, pool_ ? static_cast<unsigned>(options_.threads) : 1u,
                wall_s_);
  }

 private:
  BenchOptions options_;
  std::unique_ptr<util::ThreadPool> pool_;
  core::SweepRunner runner_;
  std::ofstream json_out_;
  std::unique_ptr<core::JsonlSink> json_sink_;
  std::unique_ptr<core::CsvSink> csv_sink_;
  std::size_t cells_ = 0;
  double wall_s_ = 0.0;
};

/// Row-major results hold every grid point; figures print them in the
/// paper's nesting order via this lookup.
inline const core::CellResult* find_cell(
    const std::vector<core::CellResult>& cells, video::MotionLevel motion,
    int gop, policy::Mode mode, crypto::Algorithm alg) {
  for (const auto& c : cells) {
    if (c.cell.motion == motion && c.cell.gop_size == gop &&
        c.cell.policy.mode == mode && c.cell.policy.algorithm == alg) {
      return &c;
    }
  }
  return nullptr;
}

inline void print_banner(const char* figure, const char* description,
                         const BenchOptions& options) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("setup: CIF 352x288, %d frames @30fps, %d/%d reps, seed %llu\n",
              options.frames, options.quality_reps, options.delay_reps,
              static_cast<unsigned long long>(options.seed));
  std::printf("==========================================================\n");
}

inline void print_expectation(const char* note) {
  std::printf("\npaper shape: %s\n", note);
}

/// "12.3 ±0.4" with fixed widths.
inline std::string fmt_ci(const util::RunningStats& s, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f ±%.*f", precision, s.mean(), precision,
                s.ci95_halfwidth());
  return buf;
}

/// The slow/fast labels the paper uses (low/high motion presets).
inline video::MotionLevel motion_for(bool fast) {
  return fast ? video::MotionLevel::kHigh : video::MotionLevel::kLow;
}

inline core::ExperimentSpec make_spec(const core::Workload& workload,
                                      policy::EncryptionPolicy pol,
                                      const core::DeviceProfile& device,
                                      const BenchOptions& options,
                                      bool quality,
                                      core::Transport transport =
                                          core::Transport::kRtpUdp) {
  core::ExperimentSpec spec;
  spec.policy = pol;
  spec.pipeline.device = device;
  spec.pipeline.transport = transport;
  spec.repetitions = quality ? options.quality_reps : options.delay_reps;
  spec.seed = options.seed;
  spec.evaluate_quality = quality;
  spec.sensitivity_fraction = core::default_sensitivity(workload.motion);
  return spec;
}

/// Shared body of the delay figures (Figs. 7, 8, 12, 13): mean per-packet
/// delay, analysis vs. experiment, for AES256 and 3DES, GOP 30/50,
/// slow/fast motion, across the four headline policies — one 2x2x4x2-cell
/// sweep executed in parallel, printed in the paper's nesting order.
inline void run_delay_figure(BenchEngine& engine,
                             const core::DeviceProfile& device,
                             const BenchOptions& options,
                             core::Transport transport) {
  // Like the paper, the HTTP/TCP latency figures (12, 13) show experiment
  // bars only — the 2-MMPP/G/1 analysis models the RTP/UDP service path.
  const bool show_analysis = transport == core::Transport::kRtpUdp;
  auto spec = base_spec(options, /*quality=*/false);
  spec.motions = {video::MotionLevel::kLow, video::MotionLevel::kHigh};
  spec.gop_sizes = {30, 50};
  spec.policies = policy::headline_policies(crypto::Algorithm::kAes256);
  spec.algorithms = {crypto::Algorithm::kAes256,
                     crypto::Algorithm::kTripleDes};
  spec.devices = {device};
  spec.transports = {transport};
  const auto cells = engine.run(spec);

  for (auto alg : {crypto::Algorithm::kAes256, crypto::Algorithm::kTripleDes}) {
    for (int gop : {30, 50}) {
      std::printf("\n(%s, GOP=%d, %s, %s)\n",
                  std::string(crypto::to_string(alg)).c_str(), gop,
                  device.name.c_str(), core::to_string(transport));
      if (show_analysis) {
        std::printf("%-8s | %-13s %-16s | %-13s %-16s\n", "level",
                    "slow analysis", "slow experiment", "fast analysis",
                    "fast experiment");
      } else {
        std::printf("%-8s | %-16s %-16s\n", "level", "slow experiment",
                    "fast experiment");
      }
      for (const auto& pol : policy::headline_policies(alg)) {
        std::string col[2][2];
        for (bool fast : {false, true}) {
          const auto* c =
              find_cell(cells, motion_for(fast), gop, pol.mode, alg);
          const auto& r = c->result;
          char pred[32];
          if (std::isfinite(r.predicted_delay.mean_delay_ms)) {
            std::snprintf(pred, sizeof pred, "%.1f ms",
                          r.predicted_delay.mean_delay_ms);
          } else {
            std::snprintf(pred, sizeof pred, "unstable");
          }
          col[fast ? 1 : 0][0] = pred;
          col[fast ? 1 : 0][1] = fmt_ci(r.delay_ms, 1) + " ms";
        }
        if (show_analysis) {
          std::printf("%-8s | %-13s %-16s | %-13s %-16s\n",
                      policy::to_string(pol.mode), col[0][0].c_str(),
                      col[0][1].c_str(), col[1][0].c_str(),
                      col[1][1].c_str());
        } else {
          std::printf("%-8s | %-16s %-16s\n", policy::to_string(pol.mode),
                      col[0][1].c_str(), col[1][1].c_str());
        }
      }
    }
  }
}

/// Shared body of the power figures (Figs. 10, 11): mean device power per
/// policy, for AES256 and 3DES, slow/fast motion, GOP 30/50 — the same
/// grid as the delay figures, printed against the power column.
inline void run_power_figure(BenchEngine& engine,
                             const core::DeviceProfile& device,
                             const BenchOptions& options) {
  auto spec = base_spec(options, /*quality=*/false);
  spec.motions = {video::MotionLevel::kLow, video::MotionLevel::kHigh};
  spec.gop_sizes = {30, 50};
  spec.policies = policy::headline_policies(crypto::Algorithm::kAes256);
  spec.algorithms = {crypto::Algorithm::kAes256,
                     crypto::Algorithm::kTripleDes};
  spec.devices = {device};
  const auto cells = engine.run(spec);

  for (bool fast : {false, true}) {
    for (auto alg :
         {crypto::Algorithm::kAes256, crypto::Algorithm::kTripleDes}) {
      std::printf("\n(%s-motion, %s, %s)\n", fast ? "Fast" : "Slow",
                  std::string(crypto::to_string(alg)).c_str(),
                  device.name.c_str());
      std::printf("%-8s | %-16s %-16s\n", "level", "GOP=30 (W)",
                  "GOP=50 (W)");
      for (const auto& pol : policy::headline_policies(alg)) {
        std::string col[2];
        int idx = 0;
        for (int gop : {30, 50}) {
          const auto* c =
              find_cell(cells, motion_for(fast), gop, pol.mode, alg);
          col[idx++] = fmt_ci(c->result.power_w, 2);
        }
        std::printf("%-8s | %-16s %-16s\n", policy::to_string(pol.mode),
                    col[0].c_str(), col[1].c_str());
      }
    }
  }
}

}  // namespace tv::bench
