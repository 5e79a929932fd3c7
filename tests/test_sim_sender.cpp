#include "sim/sender_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "queueing/mmpp_g1.hpp"

namespace tv::sim {
namespace {

// A small but non-degenerate spec: modulated arrivals, all four service
// stages live, moderate load.  Kept cheap enough for the unit tier.
SenderSimSpec modulated_spec() {
  SenderSimSpec spec;
  spec.arrivals = queueing::Mmpp2{50.0, 5.0, 2400.0, 160.0};
  spec.service.p_i = 0.15;
  spec.service.q_i = 1.0;
  spec.service.q_p = 0.0;
  spec.service.enc_i_mean = 0.45e-3;
  spec.service.enc_i_stddev = 0.05e-3;
  spec.service.enc_p_mean = 0.35e-3;
  spec.service.enc_p_stddev = 0.04e-3;
  spec.service.tx_i_mean = 1.2e-3;
  spec.service.tx_i_stddev = 1.2e-4;
  spec.service.tx_p_mean = 0.8e-3;
  spec.service.tx_p_stddev = 0.8e-4;
  spec.service.success_prob = 0.9;
  spec.service.backoff_rate = 3000.0;
  spec.events = 40000;
  spec.warmup = 4000;
  spec.batches = 40;
  spec.seed = 7;
  return spec;
}

TEST(SenderSim, DeterministicInSeed) {
  const SenderSimSpec spec = modulated_spec();
  const SenderSimResult a = simulate_sender(spec);
  const SenderSimResult b = simulate_sender(spec);
  EXPECT_EQ(a.wait.mean(), b.wait.mean());
  EXPECT_EQ(a.service.mean(), b.service.mean());
  EXPECT_EQ(a.measured_time, b.measured_time);
  EXPECT_EQ(a.state1_time, b.state1_time);
  EXPECT_EQ(a.arrivals_state1, b.arrivals_state1);

  SenderSimSpec other = spec;
  other.seed = 8;
  EXPECT_NE(simulate_sender(other).wait.mean(), a.wait.mean());
}

TEST(SenderSim, CountsMatchTheSpec) {
  const SenderSimSpec spec = modulated_spec();
  const SenderSimResult r = simulate_sender(spec);
  EXPECT_EQ(r.wait.count(), spec.events);
  EXPECT_EQ(r.service.count(), spec.events);
  EXPECT_EQ(r.sojourn.count(), spec.events);
  EXPECT_EQ(r.served, spec.events);
  EXPECT_EQ(r.wait_state1.count() + r.wait_state2.count(), spec.events);
  // The arrival-state counters cover every arrival, warmup included: the
  // modulating chain is stationary from time zero, so transient packets
  // are valid samples of the arrival-state process (unlike their waits).
  EXPECT_EQ(r.arrivals_state1 + r.arrivals_state2,
            spec.warmup + spec.events);
  // events divides evenly into batches here, so every batch closed.
  EXPECT_EQ(r.wait_batch_means.count(), spec.batches);
  EXPECT_GT(r.measured_time, 0.0);
  EXPECT_GT(r.chain_time, 0.0);
  EXPECT_GT(r.busy_time, 0.0);
  EXPECT_LT(r.utilization(), 1.0);
  EXPECT_GT(r.state1_fraction(), 0.0);
  EXPECT_LT(r.state1_fraction(), 1.0);
}

// Degenerate the MMPP to Poisson (lambda1 == lambda2): the analytic solver
// then reproduces Pollaczek-Khinchine exactly, and the simulated mean wait
// must land inside the batch-means confidence band around it.
TEST(SenderSim, PoissonCaseMatchesPollaczekKhinchine) {
  SenderSimSpec spec = modulated_spec();
  spec.arrivals = queueing::Mmpp2{50.0, 5.0, 400.0, 400.0};
  spec.events = 60000;
  spec.warmup = 6000;
  spec.batches = 60;
  const SenderSimResult r = simulate_sender(spec);

  const auto model = queueing::ServiceTimeModel::from_parameters(spec.service);
  const auto solution = queueing::MmppG1Solver{spec.arrivals, model}.solve();
  const double tolerance =
      4.0 * r.wait_batch_means.stderr_mean() + 0.02 * solution.mean_wait;
  EXPECT_NEAR(r.wait.mean(), solution.mean_wait, tolerance);
  EXPECT_NEAR(r.service.mean(), model.mean(),
              4.0 * r.service.stderr_mean());
  EXPECT_NEAR(r.utilization(), solution.utilization,
              0.03 * solution.utilization);
}

// With lambda1 >> lambda2 the chain occupancy and the arrival-weighted
// state shares must track the stationary distribution of eq. (2).
TEST(SenderSim, StateOccupancyTracksStationaryDistribution) {
  const SenderSimSpec spec = modulated_spec();
  const SenderSimResult r = simulate_sender(spec);
  const auto pi = spec.arrivals.stationary();
  const double lambda_bar =
      pi[0] * spec.arrivals.lambda1 + pi[1] * spec.arrivals.lambda2;
  EXPECT_NEAR(r.state1_fraction(), pi[0], 0.05);
  EXPECT_NEAR(r.arrival_state1_fraction(),
              pi[0] * spec.arrivals.lambda1 / lambda_bar, 0.07);
  // Packets arriving in the I-burst state queue behind the burst and wait
  // longer on average than packets arriving in the drained state.
  EXPECT_GT(r.wait_state1.mean(), r.wait_state2.mean());
}

// Bit-for-bit pin of the recursion.  At rho ~ 0.9 with the chain switching
// about every 0.5 ms, the modulating state flips several times while
// packet warmup+1 waits for the server, so this pins how the state-1
// occupancy is clipped to a window that opens at that packet's service
// start, not its arrival.  Any change to draw order, tie handling or the
// window bookkeeping moves these bits.
TEST(SenderSim, PinnedBitwise) {
  SenderSimSpec spec = modulated_spec();
  spec.arrivals = queueing::Mmpp2{2000.0, 2000.0, 1700.0, 166.0};
  spec.events = 2000;
  spec.warmup = 50;
  spec.batches = 20;
  spec.seed = 11;
  const SenderSimResult r = simulate_sender(spec);
  EXPECT_EQ(r.wait.mean(), 0.0078061305936682817);
  EXPECT_EQ(r.wait.variance(), 8.2336247773630829e-05);
  EXPECT_EQ(r.wait_batch_means.mean(), 0.0078061305936682852);
  EXPECT_EQ(r.wait_batch_means.variance(), 7.2403756404598249e-05);
  EXPECT_EQ(r.state1_time, 1.0633841113537745);
  EXPECT_EQ(r.chain_time, 2.1246818258951006);
  EXPECT_EQ(r.measured_time, 2.158119773204155);
  EXPECT_EQ(r.busy_time, 1.9257477879111551);
}

TEST(SenderSim, RejectsInvalidSpecs) {
  SenderSimSpec unstable = modulated_spec();
  unstable.arrivals = queueing::Mmpp2{50.0, 5.0, 2400.0, 2400.0};
  EXPECT_THROW(unstable.validate(), std::domain_error);
  EXPECT_THROW((void)simulate_sender(unstable), std::domain_error);

  SenderSimSpec no_events = modulated_spec();
  no_events.events = 0;
  EXPECT_THROW(no_events.validate(), std::invalid_argument);

  SenderSimSpec bad_batches = modulated_spec();
  bad_batches.batches = 1;
  EXPECT_THROW(bad_batches.validate(), std::invalid_argument);
  bad_batches.batches = bad_batches.events + 1;
  EXPECT_THROW(bad_batches.validate(), std::invalid_argument);
}

// NaN compares false against every bound, so each check must be phrased to
// fail on it: a NaN arrival rate, or a NaN service mean, which
// ServiceTimeModel::from_parameters rejects before rho is formed.
TEST(SenderSim, RejectsNonFiniteSpecs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SenderSimSpec nan_rate = modulated_spec();
  nan_rate.arrivals.lambda1 = nan;
  EXPECT_THROW(nan_rate.validate(), std::invalid_argument);

  SenderSimSpec nan_mean = modulated_spec();
  nan_mean.service.tx_p_mean = nan;
  EXPECT_THROW(nan_mean.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace tv::sim
