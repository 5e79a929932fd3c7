#include "queueing/mmpp_g1.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "queueing/mg1.hpp"
#include "sim/sender_sim.hpp"

namespace tv::queueing {
namespace {

ServiceTimeModel mixture_service() {
  return ServiceTimeModel{
      {{0.3, 4e-3, 4e-4}, {0.7, 2e-3, 2e-4}},
      BackoffModel{0.9, 2000.0}};
}

TEST(MmppG1, PoissonDegenerateMatchesPollaczekKhinchine) {
  // Identical rates in both states make the MMPP a Poisson process,
  // whatever the modulating chain does; the solver must then agree with
  // the P-K formula to near machine precision.
  const Mmpp2 m{.r12 = 3.0, .r21 = 5.0, .lambda1 = 100.0, .lambda2 = 100.0};
  const auto svc = mixture_service();
  const auto sol = MmppG1Solver{m, svc}.solve();
  const auto pk =
      solve_mg1(100.0, svc.mean(), svc.moment2(), svc.moment3());
  EXPECT_NEAR(sol.utilization, pk.utilization, 1e-12);
  EXPECT_NEAR(sol.mean_wait, pk.mean_wait, 1e-9 * pk.mean_wait);
  EXPECT_NEAR(sol.wait_moment2, pk.wait_moment2, 1e-8 * pk.wait_moment2);
  EXPECT_NEAR(sol.mean_workload, pk.mean_wait, 1e-9 * pk.mean_wait);
}

TEST(MmppG1, PoissonDegenerateForAnyModulation) {
  const auto svc = mixture_service();
  for (double r12 : {0.1, 1.0, 50.0}) {
    const Mmpp2 m{.r12 = r12, .r21 = 2.0 * r12, .lambda1 = 80.0,
                  .lambda2 = 80.0};
    const auto sol = MmppG1Solver{m, svc}.solve();
    const auto pk = solve_mg1(80.0, svc.mean(), svc.moment2(), svc.moment3());
    EXPECT_NEAR(sol.mean_wait, pk.mean_wait, 1e-8 * pk.mean_wait)
        << "r12 = " << r12;
  }
}

// A sender whose I-frame packets are all encrypted: per class, T_e + T_t
// is the mixture component {0.2, 1.5 ms, 0.15 ms} and T_t alone the
// component {0.8, 0.7 ms, 0.07 ms}.
sim::SenderSimSpec sender_spec(const Mmpp2& m, std::uint64_t events,
                               std::uint64_t seed) {
  sim::SenderSimSpec spec;
  spec.arrivals = m;
  spec.service.p_i = 0.2;
  spec.service.q_i = 1.0;
  spec.service.q_p = 0.0;
  spec.service.enc_i_mean = 0.8e-3;
  spec.service.enc_i_stddev = 0.1e-3;
  spec.service.tx_i_mean = 0.7e-3;
  spec.service.tx_i_stddev = 0.1118e-3;
  spec.service.tx_p_mean = 0.7e-3;
  spec.service.tx_p_stddev = 0.07e-3;
  spec.service.success_prob = 0.85;
  spec.service.backoff_rate = 3000.0;
  spec.events = events;
  spec.warmup = 100000;
  spec.seed = seed;
  return spec;
}

class MmppG1VsSim : public ::testing::TestWithParam<double> {};

TEST_P(MmppG1VsSim, SolverMatchesDiscreteEventSimulation) {
  const double scale = GetParam();
  const Mmpp2 m{.r12 = 50.0, .r21 = 5.0, .lambda1 = 2000.0 * scale,
                .lambda2 = 60.0 * scale};
  const auto spec = sender_spec(m, 1500000, 4242);
  const auto svc = ServiceTimeModel::from_parameters(spec.service);
  const auto sol = MmppG1Solver{m, svc}.solve();
  const auto sim = sim::simulate_sender(spec);
  // Waits are heavily autocorrelated, so allow a few percent.
  EXPECT_NEAR(sol.mean_wait, sim.wait.mean(), 0.06 * sim.wait.mean());
}

INSTANTIATE_TEST_SUITE_P(Loads, MmppG1VsSim,
                         ::testing::Values(0.5, 1.0, 1.7, 2.4));

TEST(MmppG1, BurstinessCostsMoreThanPoisson) {
  // Same mean arrival rate and service: a bursty MMPP must wait longer
  // than the Poisson equivalent (M/G/1).
  const Mmpp2 bursty{.r12 = 50.0, .r21 = 2.0, .lambda1 = 3000.0,
                     .lambda2 = 20.0};
  const auto svc = mixture_service();
  const auto sol = MmppG1Solver{bursty, svc}.solve();
  const auto pk = solve_mg1(bursty.mean_rate(), svc.mean(), svc.moment2(),
                            svc.moment3());
  EXPECT_GT(sol.mean_wait, 2.0 * pk.mean_wait);
}

TEST(MmppG1, BusyPeriodMatrixIsStochastic) {
  const Mmpp2 m{.r12 = 30.0, .r21 = 3.0, .lambda1 = 2500.0, .lambda2 = 100.0};
  ServiceTimeModel svc{
      {{0.25, 2.2e-3, 2e-4}, {0.75, 1.1e-3, 1e-4}},
      BackoffModel{0.8, 2500.0}};
  const auto sol = MmppG1Solver{m, svc}.solve();
  for (std::size_t i = 0; i < 2; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_GE(sol.busy_period_phase(i, j), 0.0);
      row += sol.busy_period_phase(i, j);
    }
    EXPECT_NEAR(row, 1.0, 1e-9);
  }
}

TEST(MmppG1, IdleProbabilitySumsToOneMinusRho) {
  const Mmpp2 m{.r12 = 30.0, .r21 = 3.0, .lambda1 = 2500.0, .lambda2 = 100.0};
  ServiceTimeModel svc{
      {{0.25, 2.2e-3, 2e-4}, {0.75, 1.1e-3, 1e-4}},
      BackoffModel{0.8, 2500.0}};
  const auto sol = MmppG1Solver{m, svc}.solve();
  double total = 0.0;
  for (double u : sol.idle_phase) {
    EXPECT_GE(u, 0.0);
    total += u;
  }
  EXPECT_NEAR(total, 1.0 - sol.utilization, 1e-9);
}

TEST(MmppG1, WaitVarianceIsNonNegativeAndSimConsistent) {
  const Mmpp2 m{.r12 = 50.0, .r21 = 5.0, .lambda1 = 2000.0, .lambda2 = 60.0};
  const auto spec = sender_spec(m, 1000000, 17);
  const auto svc = ServiceTimeModel::from_parameters(spec.service);
  const auto sol = MmppG1Solver{m, svc}.solve();
  EXPECT_GE(sol.wait_stddev(), 0.0);
  const auto sim = sim::simulate_sender(spec);
  const double sim_m2 =
      sim.wait.mean() * sim.wait.mean() + sim.wait.variance();
  EXPECT_NEAR(sol.wait_moment2, sim_m2, 0.12 * sim_m2);
}

TEST(MmppG1, ThrowsOnUnstableQueue) {
  const Mmpp2 m{.r12 = 1.0, .r21 = 1.0, .lambda1 = 1000.0, .lambda2 = 1000.0};
  ServiceTimeModel svc{{{1.0, 2e-3, 1e-4}},
                       BackoffModel{1.0, 1.0}};  // rho = 2.
  EXPECT_THROW(MmppG1Solver(m, svc).solve(), std::domain_error);
}

TEST(MmppG1, SojournIsWaitPlusService) {
  const Mmpp2 m{.r12 = 10.0, .r21 = 2.0, .lambda1 = 500.0, .lambda2 = 50.0};
  const auto svc = mixture_service();
  const auto sol = MmppG1Solver{m, svc}.solve();
  EXPECT_NEAR(sol.mean_sojourn, sol.mean_wait + svc.mean(), 1e-12);
}

TEST(MmppG1, ThreeStateLumpableSolverEqualsTwoState) {
  // Extension beyond the paper's 2-state model, checked by lumpability:
  // states 2 and 3 share an arrival rate and the same rate back into
  // state 1, so merging them leaves a 2-MMPP with the same arrival law,
  // r12 = q12 + q13 and r21 = q21 = q31.  Both solutions must agree.
  MmppN m;
  m.q = util::Matrix{{-200.0, 150.0, 50.0},
                     {20.0, -50.0, 30.0},
                     {20.0, 40.0, -60.0}};
  m.rates = {3000.0, 40.0, 40.0};
  const Mmpp2 lumped{.r12 = 200.0, .r21 = 20.0, .lambda1 = 3000.0,
                     .lambda2 = 40.0};
  ServiceTimeModel svc{
      {{0.3, 1.8e-3, 1.5e-4}, {0.7, 0.8e-3, 0.7e-4}},
      BackoffModel{0.85, 2000.0}};
  const auto three = MmppG1Solver{m, svc}.solve();
  const auto two = MmppG1Solver{lumped, svc}.solve();
  EXPECT_GT(three.utilization, 0.0);
  EXPECT_LT(three.utilization, 1.0);
  EXPECT_NEAR(three.utilization, two.utilization, 1e-12);
  EXPECT_NEAR(three.mean_wait, two.mean_wait, 1e-9 * two.mean_wait);
  EXPECT_NEAR(three.wait_moment2, two.wait_moment2, 1e-9 * two.wait_moment2);
  // Idle probabilities still sum to 1 - rho in the general case, and the
  // merged states' idle mass is the lumped state's.
  EXPECT_NEAR(three.idle_phase[0] + three.idle_phase[1] + three.idle_phase[2],
              1.0 - three.utilization, 1e-9);
  EXPECT_NEAR(three.idle_phase[1] + three.idle_phase[2], two.idle_phase[1],
              1e-9);
}

TEST(MmppG1, ThreeStatePoissonDegenerateStillPollaczekKhinchine) {
  MmppN m;
  m.q = util::Matrix{{-3.0, 2.0, 1.0}, {4.0, -9.0, 5.0}, {0.5, 0.5, -1.0}};
  m.rates = {120.0, 120.0, 120.0};
  const auto svc = mixture_service();
  const auto sol = MmppG1Solver{m, svc}.solve();
  const auto pk = solve_mg1(120.0, svc.mean(), svc.moment2(), svc.moment3());
  EXPECT_NEAR(sol.mean_wait, pk.mean_wait, 1e-7 * pk.mean_wait);
}

TEST(MmppN, ValidationCatchesBadGenerators) {
  MmppN m;
  m.q = util::Matrix{{-1.0, 2.0}, {1.0, -1.0}};  // rows don't sum to 0.
  m.rates = {1.0, 1.0};
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m.q = util::Matrix{{-1.0, 1.0}, {1.0, -1.0}};
  m.rates = {0.0, 0.0};
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m.rates = {1.0, 1.0};
  EXPECT_NO_THROW(m.validate());
}

TEST(MmppN, ValidationRejectsNonFiniteRates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {nan, inf}) {
    MmppN m;
    m.q = util::Matrix{{-1.0, 1.0}, {1.0, -1.0}};
    m.rates = {1.0, bad};
    EXPECT_THROW(m.validate(), std::invalid_argument) << bad;
    m.rates = {1.0, 1.0};
    m.q = util::Matrix{{-bad, bad}, {1.0, -1.0}};
    EXPECT_THROW(m.validate(), std::invalid_argument) << bad;
    m.q = util::Matrix{{bad, 1.0}, {1.0, -1.0}};
    EXPECT_THROW(m.validate(), std::invalid_argument) << bad;
  }
}

TEST(Mg1, ClosedFormsAndValidation) {
  const auto s = solve_mg1(10.0, 0.05, 0.005, 0.0001);
  EXPECT_NEAR(s.utilization, 0.5, 1e-12);
  EXPECT_NEAR(s.mean_wait, 10.0 * 0.005 / (2.0 * 0.5), 1e-12);
  EXPECT_THROW((void)solve_mg1(10.0, 0.2, 0.05), std::domain_error);
  EXPECT_THROW((void)solve_mg1(-1.0, 0.2, 0.05), std::invalid_argument);
}

}  // namespace
}  // namespace tv::queueing
