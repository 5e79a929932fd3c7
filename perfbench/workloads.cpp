#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "analysis/sweep.hpp"
#include "cell/cell.hpp"
#include "core/sweep.hpp"
#include "live/load.hpp"
#include "traced.hpp"
#include "util/thread_pool.hpp"
#include "video/frame.hpp"

namespace perfbench {

namespace tvc = tv::core;
namespace video = tv::video;

namespace {

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

std::vector<std::string> cli(std::initializer_list<std::string> args,
                             std::uint64_t seed) {
  std::vector<std::string> out{args};
  out.push_back("--seed=" + std::to_string(seed));
  return out;
}

// ---------------------------------------------------------------- paper_grid
//
// The paper's Table-1 grid: both motion levels, GOP 30, the four headline
// policies under AES256 and 3DES, with receiver and eavesdropper quality.

class SweepTee : public tvc::ResultSink {
 public:
  explicit SweepTee(std::ostream& out) : jsonl_(out) {}
  void cell(const tvc::CellResult& r) override {
    jsonl_.cell(r);
    results.push_back(r);
  }
  std::vector<tvc::CellResult> results;

 private:
  tvc::JsonlSink jsonl_;
};

class PaperGrid : public Workload {
 public:
  PaperGrid(std::uint64_t seed, tv::util::ThreadPool& pool) : pool_(pool) {
    spec_.motions = {video::MotionLevel::kLow, video::MotionLevel::kHigh};
    spec_.gop_sizes = {30};
    spec_.algorithms = {tv::crypto::Algorithm::kAes256,
                        tv::crypto::Algorithm::kTripleDes};
    spec_.policies.clear();
    for (const char* p : {"none", "I", "P", "all"}) {
      spec_.policies.push_back(
          tv::policy::policy_from_string(p, spec_.algorithms.front()));
    }
    spec_.devices = {tvc::samsung_galaxy_s2()};
    spec_.transports = {tvc::Transport::kRtpUdp};
    spec_.channels = {std::nullopt};
    spec_.frames = 60;
    spec_.repetitions = 3;
    spec_.evaluate_quality = true;
    spec_.seed = seed;
  }

  void setup() override {
    runner_ = std::make_unique<tvc::SweepRunner>(&pool_);
    // SweepRunner::run asks its cache for every motion's workload from
    // concurrent cells; build them the same way, one per pool strand.
    std::vector<std::shared_ptr<const tvc::Workload>> built(
        spec_.motions.size());
    pool_.parallel_for(spec_.motions.size(), [&](std::size_t m) {
      built[m] = runner_->workloads().get(spec_.motions[m],
                                          spec_.gop_sizes.front(),
                                          spec_.frames, spec_.seed, spec_.fps);
    });
    for (const auto& w : built) note_references(*w);
  }

  PassResult run() override {
    std::ostringstream out;
    SweepTee sink{out};
    (void)runner_->run(spec_, sink);
    return finish(out.str(), sink.results);
  }

  PassResult run_traced(Tracer& tracer) override {
    std::vector<std::unique_ptr<tvc::Workload>> built(spec_.motions.size());
    pool_.parallel_for(spec_.motions.size(), [&](std::size_t m) {
      built[m] = std::make_unique<tvc::Workload>(build_workload_traced(
          tracer, spec_.motions[m], spec_.gop_sizes.front(), spec_.frames,
          spec_.seed, spec_.fps));
    });
    std::vector<const tvc::Workload*> workloads;
    for (const auto& w : built) {
      note_references(*w);
      workloads.push_back(w.get());
    }
    std::ostringstream out;
    const std::vector<tvc::CellResult> results =
        sweep_traced(tracer, spec_, workloads, pool_, out);
    return finish(out.str(), results);
  }

  [[nodiscard]] std::vector<std::string> cli_args() const override {
    return cli({"sweep", "--motions=low,high", "--gops=30",
                "--policies=none,I,P,all", "--algs=AES256,3DES",
                "--devices=samsung", "--transports=udp", "--frames=60",
                "--reps=3", "--quality=on", "--threads=4", "--format=jsonl"},
               spec_.seed);
  }

 private:
  /// Reference qualities of one motion's clip: its loss-free decode (what
  /// the receiver sees when nothing is lost) and the decoder's blank
  /// mid-gray output (what a decode of no usable data gives).
  struct References {
    double lossless_psnr_db = 0.0;
    double blank_psnr_db = 0.0;
  };

  void note_references(const tvc::Workload& w) {
    references_[w.motion] = {video::psnr_from_mse(w.base_mse),
                             video::psnr_from_mse(w.null_mse)};
  }

  PassResult finish(std::string output,
                    const std::vector<tvc::CellResult>& results) const {
    PassResult pass;
    pass.output = std::move(output);
    const std::size_t reps = static_cast<std::size_t>(spec_.repetitions);
    auto fail = [&](std::string what) {
      pass.check_failures.push_back(std::move(what));
    };
    if (results.size() != spec_.cell_count()) {
      fail(fmt("paper_grid: %zu of %zu cells reported", results.size(),
               spec_.cell_count()));
    }
    double backoff_waits = 0.0;
    for (const tvc::CellResult& r : results) {
      const tvc::ExperimentResult& e = r.result;
      const std::string label = fmt("paper_grid cell %zu (%s %s %s)",
                                    r.cell.index,
                                    video::to_string(r.cell.motion),
                                    r.cell.policy.spec().c_str(),
                                    std::string{tv::crypto::to_string(
                                        r.cell.policy.algorithm)}
                                        .c_str());
      pass.attempted += reps;
      std::set<int> failed_reps;
      for (const tvc::FailureEvent& f : e.failures) {
        failed_reps.insert(f.repetition);
      }
      pass.failed += std::max<std::size_t>(
          failed_reps.size(), static_cast<std::size_t>(e.failed_repetitions));
      if (static_cast<std::size_t>(e.completed_repetitions) != reps ||
          !e.failures.empty()) {
        fail(label + ": not every repetition completed cleanly");
      }
      const double frac = e.encryption.packet_fraction();
      if (r.cell.policy.mode == tv::policy::Mode::kNone && frac != 0.0) {
        fail(label + fmt(": encrypted fraction %.17g under none", frac));
      }
      if (r.cell.policy.mode == tv::policy::Mode::kAll && frac != 1.0) {
        fail(label + fmt(": encrypted fraction %.17g under all", frac));
      }
      // Under `all` the eavesdropper decrypts nothing, so every
      // repetition's decode must be exactly the blank decode.  Under `all`
      // and `I` it must also lose at least 10 dB against the clip's
      // loss-free quality.  The reference is the loss-free decode, not the
      // receiver's mean: the receiver's channel losses move its PSNR by up
      // to 10 dB from rep to rep, which says nothing about what encryption
      // hides.
      const References& ref = references_.at(r.cell.motion);
      const tv::util::RunningStats& ev = e.eavesdropper_psnr_db;
      if (r.cell.policy.mode == tv::policy::Mode::kAll &&
          !(std::abs(ev.min() - ref.blank_psnr_db) <= 1e-9 &&
            std::abs(ev.max() - ref.blank_psnr_db) <= 1e-9)) {
        fail(label + fmt(": eavesdropper %.6f-%.6f dB, not the blank "
                         "decode's %.6f dB",
                         ev.min(), ev.max(), ref.blank_psnr_db));
      }
      const bool protects =
          r.cell.policy.mode == tv::policy::Mode::kAll ||
          r.cell.policy.mode == tv::policy::Mode::kIFrames;
      if (protects && !(ev.mean() <= ref.lossless_psnr_db - 10.0)) {
        fail(label + fmt(": eavesdropper %.2f dB not 10 dB below the "
                         "loss-free %.2f dB",
                         ev.mean(), ref.lossless_psnr_db));
      }
      // Default pipeline p_s; each completed transfer draws a geometric
      // number of backoff waits per packet.
      const double p_s = tvc::PipelineConfig{}.mac_success_prob;
      backoff_waits += static_cast<double>(e.completed_repetitions) *
                       static_cast<double>(e.encryption.total_packets) *
                       (1.0 - p_s) / p_s;
    }
    pass.counts["core.transfer.backoff_waits_expected"] = backoff_waits;
    return pass;
  }

  tvc::SweepSpec spec_;
  tv::util::ThreadPool& pool_;
  std::unique_ptr<tvc::SweepRunner> runner_;
  std::map<video::MotionLevel, References> references_;
};

// -------------------------------------------------------------- crowded_cell
//
// A capacity sweep of one AP with tiny clips and no quality evaluation, so
// the MAC economics (backoff draws at p_s far below 1, the Bianchi solve,
// the deadline scheduler) carry the run.

class CellTee : public tv::cell::CellSink {
 public:
  explicit CellTee(std::ostream& out) : jsonl_(out) {}
  void point(const tv::cell::CapacityPoint& p) override {
    jsonl_.point(p);
    points.push_back(p);
  }
  std::vector<tv::cell::CapacityPoint> points;

 private:
  tv::cell::CellJsonlSink jsonl_;
};

class CrowdedCell : public Workload {
 public:
  CrowdedCell(std::uint64_t seed, tv::util::ThreadPool& pool) : pool_(pool) {
    spec_.flow_counts = {500, 1000, 2000, 3000};
    tv::cell::CellSpec& base = spec_.base;
    base.motions = {video::MotionLevel::kLow};
    base.gop_sizes = {8};
    base.algorithms = {tv::crypto::Algorithm::kAes256};
    base.policies = {tv::policy::policy_from_string("I",
                                                    base.algorithms.front())};
    base.devices = {tvc::samsung_galaxy_s2()};
    base.frames = 16;
    base.repetitions = 2;
    base.evaluate_quality = false;
    base.seed = seed;
  }

  void setup() override {
    runner_ = std::make_unique<tv::cell::CellRunner>(&pool_);
    const tv::cell::CellSpec& b = spec_.base;
    packets_per_flow_ = runner_->workloads()
                            .get(b.motions.front(), b.gop_sizes.front(),
                                 b.frames, b.seed, b.fps)
                            ->packets.size();
  }

  PassResult run() override {
    std::ostringstream out;
    CellTee sink{out};
    (void)runner_->run(spec_, sink);
    return finish(out.str(), sink.points);
  }

  PassResult run_traced(Tracer& tracer) override {
    const tv::cell::CellSpec& b = spec_.base;
    const tvc::Workload workload =
        build_workload_traced(tracer, b.motions.front(), b.gop_sizes.front(),
                              b.frames, b.seed, b.fps);
    packets_per_flow_ = workload.packets.size();
    std::ostringstream out;
    const std::vector<tv::cell::CapacityPoint> points =
        capacity_traced(tracer, spec_, workload, pool_, out);
    return finish(out.str(), points);
  }

  [[nodiscard]] std::vector<std::string> cli_args() const override {
    return cli({"cell", "--flows=500,1000,2000,3000", "--motions=low",
                "--gops=8", "--policies=I", "--algs=AES256",
                "--devices=samsung", "--frames=16", "--reps=2",
                "--quality=off", "--threads=4", "--format=jsonl"},
               spec_.base.seed);
  }

 private:
  PassResult finish(std::string output,
                    const std::vector<tv::cell::CapacityPoint>& points) const {
    PassResult pass;
    pass.output = std::move(output);
    auto fail = [&](std::string what) {
      pass.check_failures.push_back(std::move(what));
    };
    if (points.size() != spec_.flow_counts.size()) {
      fail(fmt("crowded_cell: %zu of %zu points reported", points.size(),
               spec_.flow_counts.size()));
    }
    const std::uint64_t reps =
        static_cast<std::uint64_t>(spec_.base.repetitions);
    double p_s_min = 1.0, backoff_waits = 0.0;
    double deferred = 0.0, degraded = 0.0;
    double previous_p_s = 2.0;
    for (const tv::cell::CapacityPoint& p : points) {
      const tv::cell::CellResult& r = p.result;
      const double p_s = r.contention.mac_success_prob;
      if (r.admitted + r.deferred != p.flows) {
        fail(fmt("crowded_cell %d flows: %d admitted + %d refused", p.flows,
                 r.admitted, r.deferred));
      }
      if (!(p_s < previous_p_s)) {
        fail(fmt("crowded_cell %d flows: p_s %.17g does not fall below "
                 "%.17g",
                 p.flows, p_s, previous_p_s));
      }
      previous_p_s = p_s;
      p_s_min = std::min(p_s_min, p_s);
      deferred += r.deferred;
      degraded += r.total_degrade_steps;
      for (const tv::cell::FlowOutcome& f : r.flow_outcomes) {
        pass.attempted += reps;
        if (!f.admitted) {
          pass.failed += reps;
          continue;
        }
        pass.failed += static_cast<std::uint64_t>(f.failed_repetitions);
        if (static_cast<std::uint64_t>(f.completed_repetitions +
                                       f.failed_repetitions) != reps) {
          fail(fmt("crowded_cell %d flows: flow %zu ran %d of %llu reps",
                   p.flows, f.index,
                   f.completed_repetitions + f.failed_repetitions,
                   static_cast<unsigned long long>(reps)));
        }
      }
      backoff_waits += static_cast<double>(r.duration_s.count()) *
                       static_cast<double>(packets_per_flow_) * (1.0 - p_s) /
                       p_s;
    }
    pass.counts["cell.p_s_min"] = p_s_min;
    pass.counts["cell.schedule.deferred"] = deferred;
    pass.counts["cell.schedule.degraded"] = degraded;
    pass.counts["core.transfer.backoff_waits_expected"] = backoff_waits;
    return pass;
  }

  tv::cell::CapacitySpec spec_;
  tv::util::ThreadPool& pool_;
  std::unique_ptr<tv::cell::CellRunner> runner_;
  std::size_t packets_per_flow_ = 0;  ///< of the last workload built.
};

// ---------------------------------------------------------------- live_fleet
//
// `live load`: a fleet of supervised uploaders on one virtual-clock event
// loop against one server, through transient chaos.  Arrivals are open
// loop (HELLOs evenly spaced over the ramp) and the ramp is sized so that
// about kThreads sessions stream at once.

constexpr const char* kLiveChaos = "eagain=0.05,short=0.02,spurious=0.05";

class LiveFleet : public Workload {
 public:
  explicit LiveFleet(std::uint64_t seed) {
    config_.sessions = 500;
    config_.motion = video::MotionLevel::kLow;
    config_.gop_size = 8;
    config_.frames = 32;
    const auto alg = tv::crypto::Algorithm::kAes128;
    config_.policy = tv::policy::policy_from_string("I", alg);
    config_.pipeline.device = tvc::samsung_galaxy_s2();
    config_.pipeline.algorithm = alg;
    config_.seed = seed;
    config_.ramp_s = kRampS;
    config_.chaos = tv::live::chaos_plan_from_string(kLiveChaos);
  }

  void setup() override {
    // run_load builds its shared workload internally (and again in every
    // measured pass); this is the same build, timed on its own.
    (void)tvc::build_workload(config_.motion, config_.gop_size,
                              config_.frames, config_.seed);
  }

  PassResult run() override { return finish(tv::live::run_load(config_)); }

  PassResult run_traced(Tracer& tracer) override {
    (void)build_workload_traced(tracer, config_.motion, config_.gop_size,
                                config_.frames, config_.seed, 30.0);
    Scope span{tracer, Layer::kLiveRunLoad,
               static_cast<std::uint64_t>(config_.sessions)};
    return finish(tv::live::run_load(config_));
  }

  [[nodiscard]] std::vector<std::string> cli_args() const override {
    return cli({"live", "load", "--sessions=500", "--motion=low", "--gop=8",
                "--frames=32", "--policy=I", "--alg=AES128",
                "--ramp=" + fmt("%g", kRampS),
                std::string{"--chaos="} + kLiveChaos},
               config_.seed);
  }

 private:
  /// Virtual seconds over which the 500 HELLOs are spread: a 32-frame
  /// session streams for about 1.1 virtual seconds, so sessions start
  /// 0.4 s apart and at most kThreads overlap.
  static constexpr double kRampS = 200.0;

  /// The tally lines `thriftyvid live load` prints, byte for byte.
  PassResult finish(const tv::live::LoadReport& r) const {
    PassResult pass;
    std::string& o = pass.output;
    o += fmt("live load: %d sessions x %zu packets, policy %s, chaos %s\n",
             config_.sessions, r.packet_count, config_.policy.label().c_str(),
             kLiveChaos);
    o += fmt("outcomes: %zu completed, %zu retried-recovered, %zu shed, "
             "%zu watchdog-killed\n",
             r.completed, r.recovered, r.shed, r.watchdog_killed);
    o += fmt("clients: %zu send retries, %zu packets shed, %zu degraded, "
             "max queue depth %zu\n",
             r.total_send_retries, r.total_packets_shed,
             r.total_packets_degraded, r.max_client_queue_depth);
    o += fmt("server: %zu hellos, %zu admitted, %zu rejected, %zu closed, "
             "%zu watchdog-killed, %zu ctrl drops\n",
             r.server.hellos, r.server.admitted, r.server.rejected,
             r.server.closed, r.server.watchdog_killed, r.server.ctrl_drops);
    o += fmt("server backlog: max %zu, %zu overload entries, "
             "%zu stall-deferred (%zu dropped)\n",
             r.server.max_backlog, r.server.overload_entries,
             r.server.stall_deferred, r.server.stall_dropped);
    double delivered_sum = 0.0;
    std::size_t delivered_n = 0;
    for (const auto& s : r.sessions) {
      if (s.server_outcome == tv::live::SessionOutcome::kPending) continue;
      delivered_sum += s.delivered_fraction;
      ++delivered_n;
    }
    if (delivered_n > 0) {
      o += fmt("delivery: %.1f%% mean over %zu admitted sessions\n",
               100.0 * delivered_sum / static_cast<double>(delivered_n),
               delivered_n);
    }
    o += fmt("duration: %.2f virtual seconds\n", r.duration_s);

    // Checks: every session completed (cleanly or after retries) with
    // every packet delivered; and the ramp keeps at most kThreads
    // sessions streaming at once.
    std::vector<std::pair<double, int>> edges;
    for (const auto& s : r.sessions) {
      ++pass.attempted;
      const bool done =
          s.client.outcome == tv::live::SessionOutcome::kCompleted ||
          s.client.outcome == tv::live::SessionOutcome::kRecovered;
      if (!done || s.delivered_fraction != 1.0) {
        ++pass.failed;
        pass.check_failures.push_back(
            fmt("live_fleet session %d: %s with %.4f delivered", s.index,
                tv::live::to_string(s.client.outcome), s.delivered_fraction));
      }
      edges.emplace_back(s.client.accepted_s, +1);
      edges.emplace_back(s.client.done_s, -1);
    }
    if (r.sessions.size() != static_cast<std::size_t>(config_.sessions)) {
      pass.check_failures.push_back(
          fmt("live_fleet: %zu of %d sessions reported", r.sessions.size(),
              config_.sessions));
    }
    std::sort(edges.begin(), edges.end());  // ends sort before starts.
    int streaming = 0, max_streaming = 0;
    for (const auto& [t, step] : edges) {
      streaming += step;
      max_streaming = std::max(max_streaming, streaming);
    }
    if (max_streaming > static_cast<int>(kThreads)) {
      pass.check_failures.push_back(
          fmt("live_fleet: %d sessions streamed at once (cap %u)",
              max_streaming, kThreads));
    }
    pass.counts["live.datagrams"] = static_cast<double>(r.server.datagrams);
    pass.counts["live.send_retries"] =
        static_cast<double>(r.total_send_retries);
    pass.counts["live.max_queue_depth"] =
        static_cast<double>(r.max_client_queue_depth);
    pass.counts["live.delivered_frac"] =
        delivered_n > 0 ? delivered_sum / static_cast<double>(delivered_n)
                        : 0.0;
    pass.counts["live.virtual_s"] = r.duration_s;
    pass.counts["live.max_streaming"] = max_streaming;
    return pass;
  }

  tv::live::LoadConfig config_;
};

// ------------------------------------------------------------- leakage_sweep
//
// The default `analyze` grid: four policies x four shapings against the
// ciphertext-only adversary, cells on the pool.

class LeakageSweep : public Workload {
 public:
  LeakageSweep(std::uint64_t seed, tv::util::ThreadPool& pool) : pool_(pool) {
    const auto alg = tv::crypto::Algorithm::kAes128;
    spec_.pipeline.algorithm = alg;
    spec_.pipeline.device = tvc::samsung_galaxy_s2();
    spec_.seed = seed;
  }

  void setup() override {
    // LeakageRunner::run builds this workload itself in every measured
    // pass; the same build, timed on its own.
    (void)tvc::build_workload(spec_.motion, spec_.gop_size, spec_.frames,
                              spec_.seed, spec_.pipeline.fps);
  }

  PassResult run() override {
    std::ostringstream out;
    tv::analysis::LeakageJsonlSink jsonl{out};
    tv::analysis::LeakageCollectSink collect;
    tv::analysis::LeakageTeeSink tee;
    tee.add(&jsonl);
    tee.add(&collect);
    tv::analysis::LeakageRunner runner{&pool_};
    (void)runner.run(spec_, tee);
    return finish(out.str(), collect.results);
  }

  PassResult run_traced(Tracer& tracer) override {
    (void)build_workload_traced(tracer, spec_.motion, spec_.gop_size,
                                spec_.frames, spec_.seed, spec_.pipeline.fps);
    std::ostringstream out;
    const std::vector<tv::analysis::LeakageCellResult> results =
        leakage_traced(tracer, spec_, pool_, out);
    return finish(out.str(), results);
  }

  [[nodiscard]] std::vector<std::string> cli_args() const override {
    return cli({"analyze", "--threads=4", "--format=jsonl"}, spec_.seed);
  }

 private:
  PassResult finish(
      std::string output,
      const std::vector<tv::analysis::LeakageCellResult>& results) const {
    PassResult pass;
    pass.output = std::move(output);
    pass.attempted = spec_.cell_count();
    if (results.size() != spec_.cell_count()) {
      pass.failed = spec_.cell_count() - results.size();
      pass.check_failures.push_back(
          fmt("leakage_sweep: %zu of %zu cells reported", results.size(),
              spec_.cell_count()));
    }
    for (const auto& r : results) {
      // The --analysis-smoke floor: with no countermeasure the adversary
      // finds at least 90% of the I-frames.
      if (r.cell.shaping.spec() == "none" && r.metrics.i_recall < 0.9) {
        pass.check_failures.push_back(
            fmt("leakage_sweep cell %zu (%s): unshaped I-frame recall %.4f "
                "below 0.9",
                r.cell.index, r.cell.policy.spec().c_str(),
                r.metrics.i_recall));
      }
    }
    return pass;
  }

  tv::analysis::LeakageSpec spec_;
  tv::util::ThreadPool& pool_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"paper_grid", "crowded_cell", "live_fleet", "leakage_sweep"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        tv::util::ThreadPool& pool) {
  if (name == "paper_grid") return std::make_unique<PaperGrid>(seed, pool);
  if (name == "crowded_cell") return std::make_unique<CrowdedCell>(seed, pool);
  if (name == "live_fleet") return std::make_unique<LiveFleet>(seed);
  if (name == "leakage_sweep") {
    return std::make_unique<LeakageSweep>(seed, pool);
  }
  throw std::invalid_argument{"unknown workload '" + name + "'"};
}

}  // namespace perfbench
