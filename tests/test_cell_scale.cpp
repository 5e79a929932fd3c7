// Scale regression for the cell engine (the slow tier): a 5k- and a
// 10k-flow capacity point, the `thriftyvid cell --flows=5000,10000
// --frames=16 --gops=8 --reps=1 --quality=off` sweep, must finish under a
// generous wall bound.  At these populations the per-attempt MAC success
// p_s falls below 1e-4 (5k) and 1e-8 (10k), so a backoff sampler whose
// cost grows with 1/p_s (one trial per collision) would take minutes to
// hours; the closed-form T_b draw keeps every packet O(1) and the whole
// sweep takes about a second single-threaded on a 4-core x86-64 host.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include "cell/cell.hpp"

namespace tv::cell {
namespace {

constexpr double kWallBoundS = 20.0;

TEST(CellScale, TenThousandFlowsFinishUnderTheWallBound) {
  CapacitySpec spec;
  spec.flow_counts = {5000, 10000};
  spec.base.gop_sizes = {8};
  spec.base.frames = 16;
  spec.base.repetitions = 1;
  spec.base.evaluate_quality = false;

  CellCollectSink sink;
  const auto start = std::chrono::steady_clock::now();
  CellRunner runner;  // serial: the bound must hold without a pool.
  (void)runner.run(spec, sink);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  EXPECT_LT(wall_s, kWallBoundS);

  ASSERT_EQ(sink.points.size(), 2u);
  for (const CapacityPoint& point : sink.points) {
    const CellResult& r = point.result;
    SCOPED_TRACE(::testing::Message() << point.flows << " flows");
    EXPECT_EQ(r.admitted + r.deferred, point.flows);
    EXPECT_GT(r.contention.mac_success_prob, 0.0);
    EXPECT_LT(r.contention.mac_success_prob, 1e-4);
    for (const FlowOutcome& flow : r.flow_outcomes) {
      if (!flow.admitted) continue;
      ASSERT_EQ(flow.completed_repetitions, 1) << "flow " << flow.index;
      ASSERT_TRUE(std::isfinite(flow.duration_s.mean()))
          << "flow " << flow.index;
    }
  }
  EXPECT_LT(sink.points[1].result.contention.mac_success_prob, 1e-8);
}

}  // namespace
}  // namespace tv::cell
