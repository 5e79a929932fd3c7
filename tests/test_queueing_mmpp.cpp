#include "queueing/mmpp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace tv::queueing {
namespace {

TEST(Mmpp2, GeneratorAndRatesMatchEquationOne) {
  const Mmpp2 m{.r12 = 3.0, .r21 = 1.5, .lambda1 = 100.0, .lambda2 = 10.0};
  const auto r = m.generator();
  EXPECT_DOUBLE_EQ(r(0, 0), -3.0);
  EXPECT_DOUBLE_EQ(r(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(r(1, 0), 1.5);
  EXPECT_DOUBLE_EQ(r(1, 1), -1.5);
  const auto lam = m.rate_matrix();
  EXPECT_DOUBLE_EQ(lam(0, 0), 100.0);
  EXPECT_DOUBLE_EQ(lam(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(lam(1, 1), 10.0);
}

TEST(Mmpp2, StationaryMatchesEquationTwo) {
  const Mmpp2 m{.r12 = 3.0, .r21 = 1.0, .lambda1 = 1.0, .lambda2 = 1.0};
  const auto pi = m.stationary();
  // pi = (p2, p1) / (p1 + p2).
  EXPECT_NEAR(pi[0], 0.25, 1e-12);
  EXPECT_NEAR(pi[1], 0.75, 1e-12);
  EXPECT_NEAR(pi[0] + pi[1], 1.0, 1e-12);
}

TEST(Mmpp2, MeanRateIsStationaryWeighted) {
  const Mmpp2 m{.r12 = 2.0, .r21 = 2.0, .lambda1 = 30.0, .lambda2 = 10.0};
  EXPECT_NEAR(m.mean_rate(), 20.0, 1e-12);
}

TEST(Mmpp2, ValidationRejectsNonsense) {
  EXPECT_THROW((Mmpp2{.r12 = 0.0, .r21 = 1.0}.validate()),
               std::invalid_argument);
  EXPECT_THROW(
      (Mmpp2{.r12 = 1.0, .r21 = 1.0, .lambda1 = 0.0, .lambda2 = 0.0}
           .validate()),
      std::invalid_argument);
}

TEST(Mmpp2, ValidationRejectsNonFiniteRates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {nan, inf}) {
    const Mmpp2 ok{.r12 = 5.0, .r21 = 2.0, .lambda1 = 400.0, .lambda2 = 50.0};
    for (double Mmpp2::*field : {&Mmpp2::r12, &Mmpp2::r21, &Mmpp2::lambda1,
                                 &Mmpp2::lambda2}) {
      Mmpp2 m = ok;
      m.*field = bad;
      EXPECT_THROW(m.validate(), std::invalid_argument) << bad;
    }
  }
}

TEST(SimulateMmpp, ArrivalCountMatchesMeanRate) {
  const Mmpp2 m{.r12 = 5.0, .r21 = 2.0, .lambda1 = 400.0, .lambda2 = 50.0};
  util::Rng rng{99};
  const double horizon = 400.0;
  const auto arrivals = simulate_mmpp(m, horizon, rng);
  const double rate = static_cast<double>(arrivals.size()) / horizon;
  EXPECT_NEAR(rate, m.mean_rate(), 0.05 * m.mean_rate());
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i].time, arrivals[i - 1].time);
  }
}

TEST(SimulateMmpp, StateLabelsHaveHigherRateInStateOne) {
  const Mmpp2 m{.r12 = 1.0, .r21 = 1.0, .lambda1 = 500.0, .lambda2 = 5.0};
  util::Rng rng{7};
  const auto arrivals = simulate_mmpp(m, 200.0, rng);
  std::size_t s1 = 0;
  for (const auto& a : arrivals) s1 += a.state == 1 ? 1 : 0;
  // States are symmetric in occupancy, so ~99% of arrivals come from 1.
  EXPECT_GT(static_cast<double>(s1) / arrivals.size(), 0.9);
}

TEST(EstimateMmpp, RecoversBurstTraceParameters) {
  // A deterministic I-burst/P-gap trace like the video producer generates:
  // every second, 20 packets spaced 0.2 ms, then 30 packets spaced 30 ms.
  std::vector<LabelledArrival> trace;
  double t = 0.0;
  for (int gop = 0; gop < 50; ++gop) {
    t = gop * 1.0;
    for (int k = 0; k < 20; ++k) {
      trace.push_back({t, true});
      t += 0.2e-3;
    }
    for (int k = 0; k < 29; ++k) {
      trace.push_back({t, false});
      t += 30e-3;
    }
  }
  const Mmpp2 est = estimate_mmpp(trace);
  // State 1: 20 packets in ~4 ms -> lambda1 ~ 5000/s, r12 ~ 1/4ms.
  EXPECT_NEAR(est.lambda1, 5000.0, 500.0);
  EXPECT_NEAR(est.r12, 250.0, 30.0);
  // State 2: 29 packets in ~0.996 s -> lambda2 ~ 29/s, r21 ~ 1/s.
  EXPECT_NEAR(est.lambda2, 29.0, 3.0);
  EXPECT_NEAR(est.r21, 1.0, 0.15);
}

TEST(EstimateMmpp, RoundtripsASimulatedMmpp) {
  const Mmpp2 truth{.r12 = 40.0, .r21 = 4.0, .lambda1 = 2000.0,
                    .lambda2 = 50.0};
  util::Rng rng{11};
  const auto arrivals = simulate_mmpp(truth, 2000.0, rng);
  std::vector<LabelledArrival> trace;
  trace.reserve(arrivals.size());
  for (const auto& a : arrivals) trace.push_back({a.time, a.state == 1});
  const Mmpp2 est = estimate_mmpp(trace);
  EXPECT_NEAR(est.lambda1, truth.lambda1, 0.25 * truth.lambda1);
  EXPECT_NEAR(est.lambda2, truth.lambda2, 0.25 * truth.lambda2);
  EXPECT_NEAR(est.mean_rate(), truth.mean_rate(), 0.15 * truth.mean_rate());
}

TEST(EstimateMmpp, RejectsDegenerateTraces) {
  EXPECT_THROW((void)estimate_mmpp({}), std::invalid_argument);
  std::vector<LabelledArrival> only_p = {
      {0.0, false}, {0.1, false}, {0.2, false}, {0.3, false}};
  EXPECT_THROW((void)estimate_mmpp(only_p), std::invalid_argument);
}

}  // namespace
}  // namespace tv::queueing
