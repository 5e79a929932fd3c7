// Byte-stability golden for the pcap analysis path.
//
// The fixture tests/data/analysis_golden.pcap is the eavesdropper's
// capture of one deterministic (replay-mode) live loopback run with
// shaping enabled; analysis_golden.jsonl pins, byte for byte, the full
// leakage record `thriftyvid analyze` produces for it — the whole
// net::pcap -> extract_rtp -> features -> inference -> leakage chain at
// %.17g.  The chain is pure IEEE arithmetic on the capture bytes, so the
// output must be identical across Release, ASan and TSan builds and any
// --threads value.
//
// Both fixtures are tracked.  The capture is a deterministic function of
// the coordinates below, but the test never rebuilds it silently: a
// missing .pcap is a failure, so a fixture that was never committed
// cannot hide behind a regeneration.  After an intentional behaviour
// change, regenerate both with
//
//     TV_UPDATE_GOLDEN=1 ./build/tests/tv_analysis_tests
//         --gtest_filter='AnalysisGolden.*'   (one command line)
//
// and review the fixture diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/sweep.hpp"
#include "core/experiment.hpp"
#include "live/loopback.hpp"
#include "net/pcap.hpp"

#ifndef TV_TEST_DATA_DIR
#error "TV_TEST_DATA_DIR must point at tests/data"
#endif

namespace tv::analysis {
namespace {

/// The workload/policy/shaping coordinates shared by the loopback run
/// that writes the fixture capture and the analysis that scores it.
struct GoldenCoordinates {
  video::MotionLevel motion = video::MotionLevel::kLow;
  int gop_size = 16;
  int frames = 48;
  std::uint64_t seed = 1;
  policy::EncryptionPolicy policy =
      policy::policy_from_string("I", crypto::Algorithm::kAes128);
  policy::ShapingPolicy shaping = policy::shaping_from_string("pad64+jit2ms");
};

LeakageSpec spec_of(const GoldenCoordinates& g) {
  LeakageSpec spec;
  spec.motion = g.motion;
  spec.gop_size = g.gop_size;
  spec.frames = g.frames;
  spec.seed = g.seed;
  spec.pipeline.algorithm = g.policy.algorithm;
  spec.policies = {g.policy};
  spec.shapings = {g.shaping};
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(AnalysisGolden, PcapAnalysisMatchesFixture) {
  const std::string data_dir{TV_TEST_DATA_DIR};
  const std::string pcap_path = data_dir + "/analysis_golden.pcap";
  const std::string golden_path = data_dir + "/analysis_golden.jsonl";
  const GoldenCoordinates g;

  const bool update = std::getenv("TV_UPDATE_GOLDEN") != nullptr;
  if (update) {
    // Rebuild the capture with the live testbed: the replay-mode loopback
    // writes exactly what its eavesdropper tap heard, and is deterministic
    // in the coordinates.
    live::LoopbackConfig config;
    config.motion = g.motion;
    config.gop_size = g.gop_size;
    config.frames = g.frames;
    config.policy = g.policy;
    config.shaping = g.shaping;
    config.seed = g.seed;
    config.pcap_path = pcap_path;
    const live::LoopbackReport report = live::run_loopback(config);
    ASSERT_GT(report.tap.captured, 0u);
  }

  const std::string pcap_bytes = read_file(pcap_path);
  ASSERT_FALSE(pcap_bytes.empty())
      << "missing fixture " << pcap_path
      << "; regenerate with TV_UPDATE_GOLDEN=1";

  const net::PcapFile capture = net::read_pcap_file(pcap_path);
  const std::vector<net::WireRtpPacket> wire = net::extract_rtp(capture);
  ASSERT_FALSE(wire.empty());

  const LeakageSpec spec = spec_of(g);
  spec.validate();
  LeakageCell cell;
  cell.policy = g.policy;
  cell.shaping = g.shaping;
  cell.seed = g.seed;  // root seed: matches the loopback run's.
  const core::Workload workload = core::build_workload(
      g.motion, g.gop_size, g.frames, g.seed, spec.pipeline.fps);

  std::ostringstream out;
  LeakageJsonlSink sink{out};
  sink.cell(run_leakage_cell(spec, cell, workload, &wire));
  const std::string actual = out.str();
  ASSERT_FALSE(actual.empty());

  if (update) {
    std::ofstream golden{golden_path, std::ios::binary};
    ASSERT_TRUE(golden) << "cannot write " << golden_path;
    golden << actual;
    GTEST_SKIP() << "fixtures regenerated under " << data_dir;
  }

  const std::string expected = read_file(golden_path);
  ASSERT_FALSE(expected.empty())
      << "missing fixture " << golden_path
      << "; regenerate with TV_UPDATE_GOLDEN=1";
  EXPECT_EQ(actual, expected)
      << "pcap analysis diverged from " << golden_path
      << "\nIf the change is intentional, regenerate the fixtures with "
         "TV_UPDATE_GOLDEN=1 and review the diff.";
}

}  // namespace
}  // namespace tv::analysis
