#include "core/sweep.hpp"

#include <stdexcept>
#include <string>

#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tv::core {

namespace {

using util::fmt;
using util::json_double;
using util::json_escape;
using util::json_stats;

std::string csv_stats(const util::RunningStats& s) {
  if (s.count() == 0) return ",";
  return fmt("%.10g,%.10g", s.mean(), s.ci95_halfwidth());
}

/// Stage aggregates as one JSON object keyed by stage; histograms are
/// sparse [[bin, count], ...] pairs (bin edges are fixed, see
/// TimeHistogram::bin_lower_s).
std::string json_stage_stats(const StageAggregates& stages) {
  std::string out = "{";
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const StageAggregates::Entry& entry = stages.stages[s];
    if (s != 0) out += ",";
    out += fmt("\"%s\":{\"events\":%llu,\"time_s\":",
               stage_key(static_cast<Stage>(s)),
               static_cast<unsigned long long>(entry.events));
    out += json_stats(entry.time_s);
    out += ",\"hist\":[";
    bool first = true;
    for (int bin = 0; bin < TimeHistogram::kBins; ++bin) {
      if (entry.histogram.count(bin) == 0) continue;
      if (!first) out += ",";
      first = false;
      out += fmt("[%d,%llu]", bin,
                 static_cast<unsigned long long>(entry.histogram.count(bin)));
    }
    out += "]}";
  }
  out += "}";
  return out;
}

}  // namespace

void SweepSpec::validate() const {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument{std::string{"SweepSpec: "} + what};
  };
  require(!motions.empty(), "no motion levels");
  require(!gop_sizes.empty(), "no GOP sizes");
  require(!policies.empty(), "no policies");
  require(!algorithms.empty(), "no algorithms");
  require(!devices.empty(), "no devices");
  require(!transports.empty(), "no transports");
  require(!channels.empty(), "no channel entries");
  require(repetitions >= 1, "repetitions < 1");
  require(fps > 0.0, "fps <= 0");
  for (int gop : gop_sizes) {
    require(gop >= 1, "GOP size < 1");
    require(frames >= gop, "frames < GOP size");
  }
  for (const auto& pol : policies) pol.validate();
}

std::size_t SweepSpec::cell_count() const {
  return motions.size() * gop_sizes.size() * policies.size() *
         algorithms.size() * devices.size() * transports.size() *
         channels.size();
}

std::vector<SweepCell> enumerate_cells(const SweepSpec& spec) {
  std::vector<SweepCell> cells;
  cells.reserve(spec.cell_count());
  for (const auto motion : spec.motions) {
    for (const int gop : spec.gop_sizes) {
      for (const auto& shape : spec.policies) {
        for (const auto algorithm : spec.algorithms) {
          for (const auto& device : spec.devices) {
            for (const auto transport : spec.transports) {
              for (const auto& channel : spec.channels) {
                SweepCell cell;
                cell.index = cells.size();
                cell.motion = motion;
                cell.gop_size = gop;
                cell.policy = shape;
                cell.policy.algorithm = algorithm;
                cell.device = device;
                cell.transport = transport;
                cell.channel = channel;
                cell.seed = spec.seed_mode == SweepSpec::SeedMode::kShared
                                ? spec.seed
                                : util::derive_seed(spec.seed, 0x5eedC311ULL,
                                                    cell.index);
                cells.push_back(std::move(cell));
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

void TableSink::begin(const SweepSpec& spec) {
  quality_ = spec.evaluate_quality;
  out_ << fmt("%-4s %-6s %-4s %-10s %-7s %-8s %-4s %-18s %-16s", "cell",
              "motion", "gop", "policy", "alg", "device", "tx",
              "delay ms", "power W");
  if (quality_) out_ << fmt(" %-14s %-14s", "rx dB", "eaves dB");
  out_ << fmt(" %-7s %s\n", "reps", "fail");
}

void TableSink::cell(const CellResult& r) {
  const auto& e = r.result;
  out_ << fmt("%-4zu %-6s %-4d %-10s %-7s %-8s %-4s %-18s %-16s",
              r.cell.index, video::to_string(r.cell.motion), r.cell.gop_size,
              r.cell.policy.spec().c_str(),
              std::string{crypto::to_string(r.cell.policy.algorithm)}.c_str(),
              r.cell.device.key.c_str(), transport_key(r.cell.transport),
              fmt("%.2f ±%.2f", e.delay_ms.mean(),
                  e.delay_ms.ci95_halfwidth())
                  .c_str(),
              fmt("%.3f ±%.3f", e.power_w.mean(), e.power_w.ci95_halfwidth())
                  .c_str());
  if (quality_) {
    out_ << fmt(" %-14s %-14s",
                fmt("%.2f ±%.2f", e.receiver_psnr_db.mean(),
                    e.receiver_psnr_db.ci95_halfwidth())
                    .c_str(),
                fmt("%.2f ±%.2f", e.eavesdropper_psnr_db.mean(),
                    e.eavesdropper_psnr_db.ci95_halfwidth())
                    .c_str());
  }
  out_ << fmt(" %-7s %zu\n",
              fmt("%d/%d", e.completed_repetitions,
                  e.completed_repetitions + e.failed_repetitions)
                  .c_str(),
              e.failures.size());
  if (e.stage_stats) {
    out_ << "     stages:";
    for (std::size_t s = 0; s < kStageCount; ++s) {
      const StageAggregates::Entry& entry = e.stage_stats->stages[s];
      out_ << fmt(" %s n=%llu mean=%.3gms", stage_key(static_cast<Stage>(s)),
                  static_cast<unsigned long long>(entry.events),
                  entry.time_s.mean() * 1e3);
    }
    out_ << "\n";
  }
}

void JsonlSink::cell(const CellResult& r) {
  const auto& e = r.result;
  out_ << "{\"cell\":" << r.cell.index << ",\"motion\":\""
       << video::to_string(r.cell.motion) << "\",\"gop\":" << r.cell.gop_size
       << ",\"policy\":\"" << json_escape(r.cell.policy.spec())
       << "\",\"algorithm\":\"" << crypto::to_string(r.cell.policy.algorithm)
       << "\",\"device\":\"" << json_escape(r.cell.device.key)
       << "\",\"transport\":\"" << transport_key(r.cell.transport)
       << "\",\"seed\":" << r.cell.seed
       << ",\"completed\":" << e.completed_repetitions
       << ",\"failed\":" << e.failed_repetitions
       << ",\"failures\":" << e.failures.size()
       << fmt(",\"counters\":{\"retransmissions\":%zu,\"deadline_drops\":%zu,"
              "\"outage_drops\":%zu,\"degraded_packets\":%zu}",
              e.total_retransmissions, e.total_deadline_drops,
              e.total_outage_drops, e.total_degraded_packets)
       << ",\"encrypted_packet_fraction\":"
       << json_double(e.encryption.packet_fraction())
       << ",\"delay_ms\":" << json_stats(e.delay_ms)
       << ",\"duration_s\":" << json_stats(e.duration_s)
       << ",\"power_w\":" << json_stats(e.power_w)
       << ",\"receiver_psnr_db\":" << json_stats(e.receiver_psnr_db)
       << ",\"receiver_mos\":" << json_stats(e.receiver_mos)
       << ",\"eavesdropper_psnr_db\":" << json_stats(e.eavesdropper_psnr_db)
       << ",\"eavesdropper_mos\":" << json_stats(e.eavesdropper_mos);
  if (e.stage_stats) {
    out_ << ",\"stages\":" << json_stage_stats(*e.stage_stats);
  }
  out_ << ",\"predicted\":{\"delay_ms\":"
       << json_double(e.predicted_delay.mean_delay_ms)
       << ",\"eavesdropper_psnr_db\":"
       << json_double(e.predicted_eavesdropper.psnr_db)
       << ",\"power_w\":" << json_double(e.predicted_power.mean_power_w)
       << "}}\n";
}

void CsvSink::begin(const SweepSpec& spec) {
  stage_stats_ = spec.collect_stage_stats;
  out_ << "cell,motion,gop,policy,algorithm,device,transport,seed,"
          "completed,failed,failures,retransmissions,deadline_drops,"
          "outage_drops,degraded_packets,delay_ms_mean,delay_ms_ci95,"
          "power_w_mean,power_w_ci95,receiver_psnr_db_mean,"
          "receiver_psnr_db_ci95,eavesdropper_psnr_db_mean,"
          "eavesdropper_psnr_db_ci95,predicted_delay_ms,"
          "predicted_eavesdropper_psnr_db,predicted_power_w";
  if (stage_stats_) {
    for (std::size_t s = 0; s < kStageCount; ++s) {
      const char* key = stage_key(static_cast<Stage>(s));
      out_ << fmt(",%s_events,%s_time_mean_s", key, key);
    }
  }
  out_ << "\n";
}

void CsvSink::cell(const CellResult& r) {
  const auto& e = r.result;
  out_ << fmt("%zu,%s,%d,%s,%s,%s,%s,%llu,%d,%d,%zu,%zu,%zu,%zu,%zu,",
              r.cell.index, video::to_string(r.cell.motion), r.cell.gop_size,
              r.cell.policy.spec().c_str(),
              std::string{crypto::to_string(r.cell.policy.algorithm)}.c_str(),
              r.cell.device.key.c_str(), transport_key(r.cell.transport),
              static_cast<unsigned long long>(r.cell.seed),
              e.completed_repetitions, e.failed_repetitions,
              e.failures.size(), e.total_retransmissions,
              e.total_deadline_drops, e.total_outage_drops,
              e.total_degraded_packets)
       << csv_stats(e.delay_ms) << "," << csv_stats(e.power_w) << ","
       << csv_stats(e.receiver_psnr_db) << ","
       << csv_stats(e.eavesdropper_psnr_db) << ","
       << fmt("%.10g,%.10g,%.10g", e.predicted_delay.mean_delay_ms,
              e.predicted_eavesdropper.psnr_db,
              e.predicted_power.mean_power_w);
  if (stage_stats_) {
    for (std::size_t s = 0; s < kStageCount; ++s) {
      if (e.stage_stats) {
        const StageAggregates::Entry& entry = e.stage_stats->stages[s];
        out_ << fmt(",%llu,%.10g",
                    static_cast<unsigned long long>(entry.events),
                    entry.time_s.mean());
      } else {
        out_ << ",,";
      }
    }
  }
  out_ << "\n";
}

std::shared_ptr<const Workload> WorkloadCache::get(video::MotionLevel motion,
                                                   int gop_size, int frames,
                                                   std::uint64_t seed,
                                                   double fps) {
  return workloads_.get(
      Key{static_cast<int>(motion), gop_size, frames, seed, fps}, [&] {
        return std::make_shared<const Workload>(
            build_workload(motion, gop_size, frames, seed, fps));
      });
}

SweepSummary SweepRunner::run(const SweepSpec& spec, ResultSink& sink) {
  spec.validate();
  const std::vector<SweepCell> cells = enumerate_cells(spec);

  // Fail fast on configuration mistakes before any cell runs: a bad
  // channel knob should abort the sweep, not surface as thousands of
  // kException failure records.
  for (const SweepCell& cell : cells) {
    PipelineConfig pipeline;
    pipeline.device = cell.device;
    pipeline.transport = cell.transport;
    pipeline.channel = cell.channel;
    pipeline.fps = spec.fps;
    core::validate(pipeline);
  }

  auto run_cell = [&](std::size_t index) {
    const SweepCell& cell = cells[index];
    ExperimentSpec es;
    es.policy = cell.policy;
    es.pipeline.device = cell.device;
    es.pipeline.transport = cell.transport;
    es.pipeline.channel = cell.channel;
    es.pipeline.fps = spec.fps;
    es.repetitions = spec.repetitions;
    es.seed = cell.seed;
    es.evaluate_quality = spec.evaluate_quality;
    es.sensitivity_fraction = default_sensitivity(cell.motion);
    es.collect_stage_stats = spec.collect_stage_stats;
    const std::shared_ptr<const Workload> workload =
        cache_.get(cell.motion, cell.gop_size, spec.frames, spec.seed,
                   spec.fps);
    CellResult result;
    result.cell = cell;
    result.result = run_experiment(es, *workload, pool_);
    return result;
  };
  SweepSummary summary;
  summary.wall_s = util::stream_results(pool_, cells.size(), spec, sink,
                                        run_cell, [](const CellResult&) {});
  summary.cells = cells.size();
  summary.workloads = cache_.size();
  summary.threads = pool_ != nullptr ? pool_->thread_count() : 1;
  return summary;
}

}  // namespace tv::core
