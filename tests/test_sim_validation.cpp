#include "sim/validation.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tv::sim {
namespace {

// A grid small enough for the unit tier but still exercising both the
// degenerate (I-frames encrypted) and live eavesdropper paths.
ValidationSpec tiny_spec() {
  ValidationSpec spec;
  spec.lambda1s = {2400.0};
  spec.lambda2s = {160.0};
  spec.events = 60000;
  spec.warmup = 6000;
  spec.batches = 30;
  spec.eavesdropper_repetitions = 200;
  spec.seed = 3;
  return spec;
}

TEST(ValidationSpec, EnumeratesCellsRowMajorWithDerivedSeeds) {
  ValidationSpec spec;
  spec.lambda1s = {2400.0, 4000.0};
  spec.lambda2s = {160.0};
  spec.algorithms = {crypto::Algorithm::kAes128, crypto::Algorithm::kAes256};
  ASSERT_EQ(spec.cell_count(), 8u);  // 2 lambda1 x 1 lambda2 x 2 pol x 2 alg.
  const auto cells = enumerate_cells(spec);
  ASSERT_EQ(cells.size(), 8u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].seed, util::derive_seed(spec.seed, i));
  }
  // lambda1 is the slowest axis, algorithm the fastest.
  EXPECT_EQ(cells[0].lambda1, 2400.0);
  EXPECT_EQ(cells[4].lambda1, 4000.0);
  EXPECT_EQ(cells[0].policy.algorithm, crypto::Algorithm::kAes128);
  EXPECT_EQ(cells[1].policy.algorithm, crypto::Algorithm::kAes256);
  EXPECT_EQ(cells[0].policy.mode, policy::Mode::kNone);
  EXPECT_EQ(cells[2].policy.mode, policy::Mode::kIFrames);
}

TEST(ValidationSpec, RejectsDegenerateSpecs) {
  ValidationSpec empty = tiny_spec();
  empty.lambda1s.clear();
  EXPECT_THROW(empty.validate(), std::invalid_argument);

  ValidationSpec bad_z = tiny_spec();
  bad_z.z = 0.0;
  EXPECT_THROW(bad_z.validate(), std::invalid_argument);

  ValidationSpec lone_flow = tiny_spec();
  lone_flow.eavesdropper_repetitions = 1;
  EXPECT_THROW(lone_flow.validate(), std::invalid_argument);
}

TEST(ValidationRunner, TinyGridConvergesToAnalyticPredictions) {
  const ValidationSpec spec = tiny_spec();
  ValidationCollectSink sink;
  const ValidationSummary summary = ValidationRunner{}.run(spec, sink);
  EXPECT_EQ(summary.cells, spec.cell_count());
  EXPECT_EQ(summary.threads, 1u);
  EXPECT_TRUE(summary.all_passed()) << summary.failed_checks
                                    << " checks failed";
  ASSERT_EQ(sink.results.size(), spec.cell_count());
  for (const ValidationCellResult& result : sink.results) {
    EXPECT_TRUE(result.passed());
    EXPECT_FALSE(result.checks.empty());
    for (const ValidationCheck& check : result.checks) {
      EXPECT_TRUE(check.ok)
          << check.name << ": simulated " << check.simulated << " vs analytic "
          << check.analytic << " (tolerance " << check.tolerance << ")";
    }
  }
}

TEST(ValidationRunner, JsonlOutputIsByteIdenticalAcrossThreadCounts) {
  const ValidationSpec spec = tiny_spec();

  std::ostringstream serial;
  {
    ValidationJsonlSink sink{serial};
    (void)ValidationRunner{}.run(spec, sink);
  }

  std::ostringstream pooled;
  {
    util::ThreadPool pool{3};
    ValidationJsonlSink sink{pooled};
    const ValidationSummary summary = ValidationRunner{&pool}.run(spec, sink);
    EXPECT_EQ(summary.threads, 3u);
  }
  EXPECT_EQ(serial.str(), pooled.str());
  EXPECT_NE(serial.str().find("\"mean_wait\""), std::string::npos);
}

TEST(ValidationRunner, JsonlKeepsEveryFieldOfLongObjects) {
  // The sender and analytic objects each render past 256 characters; a
  // fixed-size format buffer once cut them mid-key, leaving invalid JSON.
  std::ostringstream out;
  {
    ValidationJsonlSink sink{out};
    (void)ValidationRunner{}.run(tiny_spec(), sink);
  }
  const std::string line = out.str().substr(0, out.str().find('\n'));
  EXPECT_NE(line.find("\"arrival_state1_fraction\":"), std::string::npos);
  EXPECT_NE(line.find("\"served\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"flow_mse\":"), line.rfind("\"flow_mse\":"))
      << line;  // the eavesdropper's and the analytic model's.
}

TEST(ValidationRunner, FailsFastOnUnstableCells) {
  ValidationSpec unstable = tiny_spec();
  // Policy "all" with 3DES on the slow device profile overloads the queue.
  unstable.lambda1s = {4000.0};
  unstable.lambda2s = {2000.0};
  unstable.policies = {{policy::Mode::kAll, crypto::Algorithm::kTripleDes,
                        0.0}};
  unstable.algorithms = {crypto::Algorithm::kTripleDes};
  ValidationCollectSink sink;
  EXPECT_THROW((void)ValidationRunner{}.run(unstable, sink),
               std::domain_error);
  EXPECT_TRUE(sink.results.empty());  // fail-fast: no cell ever ran.
}

}  // namespace
}  // namespace tv::sim
