// Benchmark harness: runs one workload for a fixed measuring time and
// prints its metrics as one JSON object on the last line of stdout.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --workload NAME --seed N --dump DIR
//
// --trace 0 times the untraced command (end-to-end metrics); --trace 1
// alternates untraced and traced iterations and reports the per-layer
// split.  --dump runs the workload once and writes its result stream and
// the equivalent thriftyvid command line into DIR, for the CLI self-test
// in run.py.  NOTES.md describes the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "crypto/aes_ni.hpp"
#include "util/build_info.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv_s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv_s(usage.ru_utime) + tv_s(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Host and build fingerprint, printed ahead of the result line.
std::string fingerprint(const std::string& workload, std::uint64_t seed) {
  std::ostringstream o;
  o << "{\"fingerprint\":{\"cpu\":" << json_string(cpu_model())
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"aes_ni\":" << (tv::crypto::aes_ni_available() ? "true" : "false")
    << ",\"build_type\":" << json_string(tv::util::build_type())
    << ",\"build_info\":" << json_string(tv::util::build_info_line())
    << ",\"threads\":" << kThreads << ",\"workload\":" << json_string(workload)
    << ",\"seed\":" << seed << "}}";
  return o.str();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(const PassResult& pass) {
    attempted += pass.attempted;
    failed += pass.failed;
    errors.insert(errors.end(), pass.check_failures.begin(),
                  pass.check_failures.end());
  }
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const std::string& e : tally.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\":" << (tally.errors.empty() ? "true" : "false")
    << ",\"attempted\":" << std::max<std::uint64_t>(tally.attempted, 1)
    << ",\"failed\":" << tally.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) o << ",";
    o << json_string(metrics[i].name) << ":{\"value\":" << metrics[i].value
      << ",\"unit\":" << json_string(metrics[i].unit) << "}";
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
}

void check_same_output(Tally& tally, const std::string& reference,
                       const std::string& output, const char* what) {
  if (output != reference) tally.errors.push_back(what);
}

/// Untraced run over every instance: each instance's set-up is timed once
/// (setup_s is their median), then rounds -- one run() of every instance
/// -- repeat until `seconds` have passed.  Rates and CPU times are per
/// round, reported as medians over the rounds.
int run_untraced(std::vector<std::unique_ptr<Workload>>& instances,
                 double seconds) {
  Tally tally;
  std::vector<double> setups;
  for (const auto& w : instances) {
    const auto t = Clock::now();
    w->setup();
    setups.push_back(seconds_since(t));
  }

  std::vector<double> rates, cpus;
  std::vector<std::string> reference(instances.size());
  const auto t0 = Clock::now();
  while (rates.empty() || seconds_since(t0) < seconds) {
    const double cpu0 = cpu_seconds();
    const auto start = Clock::now();
    std::uint64_t transfers = 0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const PassResult pass = instances[i]->run();
      if (rates.empty()) reference[i] = pass.output;
      check_same_output(tally, reference[i], pass.output,
                        "a repeat pass's result stream differs from the "
                        "first pass's");
      tally.add(pass);
      transfers += pass.attempted - pass.failed;
    }
    const double wall = seconds_since(start);
    rates.push_back(static_cast<double>(transfers) / wall);
    cpus.push_back((cpu_seconds() - cpu0) /
                   static_cast<double>(instances.size()));
  }
  std::fprintf(stderr, "set-up times (s):");
  for (const double t : setups) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, "\nmeasured %zu round(s) of %zu instance(s) in %.2f s;"
               " transfers/s per round:",
               rates.size(), instances.size(), seconds_since(t0));
  for (const double r : rates) std::fprintf(stderr, " %.4g", r);
  std::fprintf(stderr, "\n");
  print_result(tally, {{"setup_s", median(setups), "s"},
                       {"transfers_per_s", median(rates), "1/s"},
                       {"cpu_s", median(cpus), "s"},
                       {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return 0;
}

/// Fraction of [t0, t1] during which at least one span is open.
double coverage(std::vector<Span> spans, std::int64_t t0, std::int64_t t1) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  std::int64_t covered = 0, reach = t0;
  for (const Span& s : spans) {
    const std::int64_t start = std::max(s.start_ns, reach);
    const std::int64_t end = std::min(s.end_ns, t1);
    if (end > start) covered += end - start;
    reach = std::max(reach, std::min(s.end_ns, t1));
  }
  return t1 > t0 ? static_cast<double>(covered) / static_cast<double>(t1 - t0)
                 : 0.0;
}

int run_traced(Workload& w, double seconds) {
  Tally tally;
  Tracer tracer;
  std::vector<Span> spans;  // every traced iteration's spans.
  std::vector<double> untraced_walls, traced_walls, coverages, busy_fracs;
  std::map<std::string, double> counts;
  const auto t0 = Clock::now();
  while (traced_walls.empty() || seconds_since(t0) < seconds) {
    auto start = Clock::now();
    w.setup();
    const PassResult plain = w.run();
    untraced_walls.push_back(seconds_since(start));
    tally.add(plain);

    tracer.clear();
    const std::int64_t begin_ns = tracer.now_ns();
    const PassResult traced = w.run_traced(tracer);
    const std::int64_t end_ns = tracer.now_ns();
    traced_walls.push_back(1e-9 * static_cast<double>(end_ns - begin_ns));
    check_same_output(tally, plain.output, traced.output,
                      "the traced result stream differs from the untraced "
                      "one");

    const std::vector<Span> pass_spans = tracer.collect();
    coverages.push_back(coverage(pass_spans, begin_ns, end_ns));
    double busy_ns = 0.0;
    for (const Span& s : pass_spans) {
      busy_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
    busy_fracs.push_back(busy_ns / (kThreads * static_cast<double>(
                                                   end_ns - begin_ns)));
    spans.insert(spans.end(), pass_spans.begin(), pass_spans.end());
    counts = traced.counts;
  }
  const double passes = static_cast<double>(traced_walls.size());
  std::fprintf(stderr, "traced %zu iteration(s) in %.2f s\n",
               traced_walls.size(), seconds_since(t0));

  for (const double c : coverages) {
    if (c < 0.9) {
      tally.errors.push_back("traced spans cover only " + std::to_string(c) +
                             " of the traced wall time (floor 0.9)");
    }
  }

  // Per-layer totals, averaged per traced iteration.
  struct LayerTotals {
    double calls = 0, units = 0, busy_s = 0;
    std::vector<double> call_ms;
  };
  std::map<Layer, LayerTotals> layers;
  for (const Span& s : spans) {
    LayerTotals& t = layers[s.layer];
    const double ms = 1e-6 * static_cast<double>(s.end_ns - s.start_ns);
    t.calls += 1;
    t.units += static_cast<double>(s.units);
    t.busy_s += 1e-3 * ms;
    t.call_ms.push_back(ms);
  }
  const auto per_pass = [&](Layer l, double LayerTotals::*field) {
    return layers[l].*field / passes;
  };
  const auto busy = [&](Layer l) { return per_pass(l, &LayerTotals::busy_s); };
  const auto units = [&](Layer l) { return per_pass(l, &LayerTotals::units); };
  const auto calls = [&](Layer l) { return per_pass(l, &LayerTotals::calls); };
  const auto pct = [&](Layer l, double p) {
    return percentile(layers[l].call_ms, p);
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto count = [&](const char* key) {
    const auto it = counts.find(key);
    return it == counts.end() ? 0.0 : it->second;
  };

  const double untraced = median(untraced_walls);
  std::vector<Metric> m = {
      {"video.render.frames", units(Layer::kVideoRender), "count"},
      {"video.render.busy_s", busy(Layer::kVideoRender), "s"},
      {"video.encode.frames", units(Layer::kVideoEncode), "count"},
      {"video.encode.busy_s", busy(Layer::kVideoEncode), "s"},
      {"net.packetize.packets", units(Layer::kNetPacketize), "count"},
      {"net.packetize.busy_s", busy(Layer::kNetPacketize), "s"},
      {"core.characterize.busy_s", busy(Layer::kCoreCharacterize), "s"},
      {"distortion.fit.busy_s", busy(Layer::kDistortionFit), "s"},
      {"video.decode.frames", units(Layer::kVideoDecode), "count"},
      {"video.decode.busy_s", busy(Layer::kVideoDecode), "s"},
      {"video.decode.call_ms_p50", pct(Layer::kVideoDecode, 50), "ms"},
      {"video.decode.call_ms_p99", pct(Layer::kVideoDecode, 99), "ms"},
      {"video.quality.frames", units(Layer::kVideoQuality), "count"},
      {"video.quality.busy_s", busy(Layer::kVideoQuality), "s"},
      {"net.clone.busy_s", busy(Layer::kNetClone), "s"},
      {"crypto.encrypt.bytes", units(Layer::kCryptoEncrypt), "bytes"},
      {"crypto.encrypt.busy_s", busy(Layer::kCryptoEncrypt), "s"},
      {"crypto.decrypt.bytes", units(Layer::kCryptoDecrypt), "bytes"},
      {"net.reassemble.packets", units(Layer::kNetReassemble), "count"},
      {"net.reassemble.busy_s", busy(Layer::kNetReassemble), "s"},
      {"core.transfer.calls", calls(Layer::kCoreTransfer), "count"},
      {"core.transfer.packets", units(Layer::kCoreTransfer), "count"},
      {"core.transfer.busy_s", busy(Layer::kCoreTransfer), "s"},
      {"core.transfer.ns_per_packet",
       1e9 * ratio(busy(Layer::kCoreTransfer), units(Layer::kCoreTransfer)),
       "ns"},
      {"core.transfer.backoff_waits_expected",
       count("core.transfer.backoff_waits_expected"), "count"},
      {"energy.model.busy_s", busy(Layer::kEnergy), "s"},
      {"cell.contention.calls", units(Layer::kCellContention), "count"},
      {"cell.contention.busy_s", busy(Layer::kCellContention), "s"},
      {"cell.schedule.calls", calls(Layer::kCellSchedule), "count"},
      {"cell.schedule.busy_s", busy(Layer::kCellSchedule), "s"},
      {"cell.schedule.deferred", count("cell.schedule.deferred"), "count"},
      {"cell.schedule.degraded", count("cell.schedule.degraded"), "count"},
      {"cell.p_s_min", count("cell.p_s_min"), "ratio"},
      {"core.predict.busy_s", busy(Layer::kCorePredict), "s"},
      {"core.sink.rows", units(Layer::kCoreSink), "count"},
      {"core.sink.busy_s", busy(Layer::kCoreSink), "s"},
      {"util.pool.busy_frac", median(busy_fracs), "ratio"},
      {"live.run_load.busy_s", busy(Layer::kLiveRunLoad), "s"},
      {"live.datagrams", count("live.datagrams"), "count"},
      {"live.us_per_datagram",
       1e6 * ratio(busy(Layer::kLiveRunLoad), count("live.datagrams")), "us"},
      {"live.send_retries", count("live.send_retries"), "count"},
      {"live.max_queue_depth", count("live.max_queue_depth"), "count"},
      {"live.max_streaming", count("live.max_streaming"), "count"},
      {"live.delivered_frac", count("live.delivered_frac"), "ratio"},
      {"live.virtual_s", count("live.virtual_s"), "s"},
      {"analysis.cell.calls", calls(Layer::kAnalysisCell), "count"},
      {"analysis.cell.busy_s", busy(Layer::kAnalysisCell), "s"},
      {"analysis.cell.ms_p50", pct(Layer::kAnalysisCell, 50), "ms"},
      {"analysis.cell.ms_p99", pct(Layer::kAnalysisCell, 99), "ms"},
      {"trace.wall_s", median(traced_walls), "s"},
      {"trace.overhead_frac", ratio(median(traced_walls) - untraced, untraced),
       "ratio"},
      {"trace.coverage_frac", *std::min_element(coverages.begin(),
                                                coverages.end()),
       "ratio"},
  };
  print_result(tally, m);
  return 0;
}

int dump(Workload& w, const std::string& name, const std::string& dir) {
  w.setup();
  const PassResult pass = w.run();
  std::ofstream{dir + "/" + name + ".out"} << pass.output;
  std::ofstream cli{dir + "/" + name + ".cli"};
  for (const std::string& arg : w.cli_args()) cli << arg << "\n";
  for (const std::string& e : pass.check_failures) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  return pass.check_failures.empty() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N "
               "(--seconds S --trace 0|1 | --dump DIR)\n");
  return 2;
}

/// Inputs per run: instance i of seed n is the command on seed
/// n * kInstances + i, so runs on different seeds share no clip and each
/// run's figures average over kInstances clips.
constexpr unsigned kInstances = 4;

int main_impl(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0 || !args.count("workload") || !args.count("seed")) {
    return usage();
  }
  const std::string name = args["workload"];
  const std::uint64_t seed = std::stoull(args["seed"]);

  tv::util::ThreadPool pool{kThreads};
  std::vector<std::unique_ptr<Workload>> instances;
  for (unsigned i = 0; i < kInstances; ++i) {
    instances.push_back(make_workload(name, seed * kInstances + i, pool));
  }
  if (args.count("dump")) return dump(*instances.front(), name, args["dump"]);
  if (!args.count("seconds") || !args.count("trace")) return usage();
  const double seconds = std::stod(args["seconds"]);
  std::printf("%s\n", fingerprint(name, seed).c_str());
  std::fflush(stdout);
  return args["trace"] == "1" ? run_traced(*instances.front(), seconds)
                              : run_untraced(instances, seconds);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
