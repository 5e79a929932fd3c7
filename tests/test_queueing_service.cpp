#include "queueing/service_time.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "backoff_law.hpp"
#include "core/service_model.hpp"
#include "util/rng.hpp"

namespace tv::queueing {
namespace {

TEST(BackoffModel, MomentsMatchClosedForms) {
  const BackoffModel b{0.8, 500.0};
  // E[K] = 0.25 collisions, each Exp(500).
  EXPECT_NEAR(b.mean(), 0.25 / 500.0, 1e-15);
  EXPECT_NEAR(b.moment2(), 2.0 * 0.2 / (0.64 * 500.0 * 500.0), 1e-15);
  EXPECT_NEAR(b.moment3(), 6.0 * 0.2 / (0.512 * std::pow(500.0, 3)), 1e-18);
}

TEST(BackoffModel, MomentsMatchMonteCarlo) {
  const BackoffModel b{0.7, 300.0};
  util::Rng rng{13};
  double m1 = 0.0;
  double m2 = 0.0;
  constexpr int kN = 400000;
  for (int i = 0; i < kN; ++i) {
    const double x = b.sample(rng);
    m1 += x;
    m2 += x * x;
  }
  m1 /= kN;
  m2 /= kN;
  EXPECT_NEAR(m1, b.mean(), 0.02 * b.mean());
  EXPECT_NEAR(m2, b.moment2(), 0.05 * b.moment2());
}

TEST(BackoffModel, LstAtZeroIsOneAndSlopeIsMinusMean) {
  const BackoffModel b{0.78, 420.0};
  EXPECT_NEAR(b.lst(0.0), 1.0, 1e-15);
  const double h = 1e-4;
  EXPECT_NEAR((b.lst(h) - b.lst(-h)) / (2.0 * h), -b.mean(),
              1e-6 * b.mean() + 1e-12);
}

TEST(BackoffModel, PerfectMacMeansNoBackoff) {
  const BackoffModel b{1.0, 100.0};
  EXPECT_DOUBLE_EQ(b.mean(), 0.0);
  EXPECT_DOUBLE_EQ(b.lst(3.0), 1.0);
  util::Rng rng{1};
  // Every draw is 0 and costs exactly the one uniform compared to p_s.
  for (int i = 0; i < 10000; ++i) {
    const util::Rng before = rng;
    ASSERT_EQ(b.sample(rng), 0.0);
    ASSERT_EQ(backoff_law::words_consumed(before, rng, 2), 1);
  }
}

TEST(BackoffModel, SampleMatchesTheCompoundGeometricLaw) {
  std::uint64_t seed = 19;
  for (const double p : backoff_law::kSuccessProbs) {
    const BackoffModel b{p, 420.0};
    util::Rng rng{seed++};
    backoff_law::expect_follows_law(b, 200000,
                                    [&] { return b.sample(rng); });
  }
}

TEST(BackoffModel, TinySuccessProbabilityCostsAtMostTwoVariates) {
  // A per-collision loop would need ~1e9 trials per draw here.
  const BackoffModel b{1e-9, 420.0};
  util::Rng rng{6};
  for (int i = 0; i < 10000; ++i) {
    const util::Rng before = rng;
    const double x = b.sample(rng);
    ASSERT_TRUE(std::isfinite(x));
    ASSERT_GE(x, 0.0);
    const int words = backoff_law::words_consumed(before, rng, 2);
    ASSERT_GE(words, 1);
    ASSERT_LE(words, 2);
  }
}

TEST(BackoffModel, RejectsDegenerateParameters) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double p : {0.0, -0.1, 1.0 + 1e-12, nan}) {
    EXPECT_THROW((void)BackoffModel(p, 420.0), std::invalid_argument)
        << "p_s = " << p;
  }
  for (const double rate : {0.0, -1.0, nan, inf}) {
    EXPECT_THROW((void)BackoffModel(0.5, rate), std::invalid_argument)
        << "lambda_b = " << rate;
  }
  try {
    (void)BackoffModel(0.0, 420.0);
    FAIL() << "p_s = 0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("p_s"), std::string::npos)
        << e.what();
  }
  try {
    (void)BackoffModel(0.5, -1.0);
    FAIL() << "lambda_b < 0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("lambda_b"), std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW((void)BackoffModel(1.0, 1e-6));
  EXPECT_NO_THROW((void)BackoffModel(1e-12, 1e9));
}

ServiceTimeModel example_model() {
  return ServiceTimeModel{
      {{0.25, 3e-3, 2e-4}, {0.75, 1e-3, 1e-4}},
      BackoffModel{0.8, 400.0}};
}

TEST(ServiceTimeModel, MeanIsMixturePlusBackoff) {
  const auto m = example_model();
  EXPECT_NEAR(m.mean(), 0.25 * 3e-3 + 0.75 * 1e-3 + (1.0 - 0.8) / (0.8 * 400.0),
              1e-15);
}

// The mixture's moments must be those of the law the simulators sample:
// the class and encrypt-or-not coins, then T_e, T_b and T_t drawn
// separately through core::ServiceModel, as sim::simulate_sender does.
TEST(ServiceTimeModel, MomentsMatchMonteCarlo) {
  ServiceParameters p;
  p.p_i = 0.25;
  p.q_i = 1.0;
  p.q_p = 0.5;
  p.enc_i_mean = 2e-3;
  p.enc_i_stddev = 1.5e-4;
  p.enc_p_mean = 0.5e-3;
  p.enc_p_stddev = 0.5e-4;
  p.tx_i_mean = 1e-3;
  p.tx_i_stddev = 1e-4;
  p.tx_p_mean = 1e-3;
  p.tx_p_stddev = 1e-4;
  p.success_prob = 0.8;
  p.backoff_rate = 400.0;
  const auto m = ServiceTimeModel::from_parameters(p);
  const core::ServiceModel stages{p.success_prob, p.backoff_rate};
  util::Rng rng{21};
  double m1 = 0.0;
  double m2 = 0.0;
  double m3 = 0.0;
  constexpr int kN = 500000;
  for (int i = 0; i < kN; ++i) {
    const bool is_i = rng.bernoulli(p.p_i);
    double x = 0.0;
    if (rng.bernoulli(is_i ? p.q_i : p.q_p)) {
      x += core::ServiceModel::draw_encryption(
          rng, is_i ? p.enc_i_mean : p.enc_p_mean,
          is_i ? p.enc_i_stddev : p.enc_p_stddev);
    }
    x += stages.draw_backoff(rng);
    x += core::ServiceModel::draw_transmission(
        rng, is_i ? p.tx_i_mean : p.tx_p_mean,
        is_i ? p.tx_i_stddev : p.tx_p_stddev);
    m1 += x;
    m2 += x * x;
    m3 += x * x * x;
  }
  m1 /= kN;
  m2 /= kN;
  m3 /= kN;
  EXPECT_NEAR(m1, m.mean(), 0.01 * m.mean());
  EXPECT_NEAR(m2, m.moment2(), 0.03 * m.moment2());
  EXPECT_NEAR(m3, m.moment3(), 0.08 * m.moment3());
}

TEST(ServiceTimeModel, LstDerivativesGiveMoments) {
  const auto m = example_model();
  EXPECT_NEAR(m.lst(0.0), 1.0, 1e-15);
  const double h = 1e-3;
  const double d1 = (m.lst(h) - m.lst(-h)) / (2.0 * h);
  EXPECT_NEAR(-d1, m.mean(), 1e-8);
  const double d2 = (m.lst(h) - 2.0 * m.lst(0.0) + m.lst(-h)) / (h * h);
  EXPECT_NEAR(d2, m.moment2(), 1e-8);
}

TEST(ServiceTimeModel, MatrixMgfOnScalarMatchesLst) {
  // For a 1x1 "matrix" A = [-s], E[expm(A S)] must equal the LST at s.
  const auto m = example_model();
  for (double s : {10.0, 100.0, 350.0}) {
    util::Matrix a(1, 1);
    a(0, 0) = -s;
    EXPECT_NEAR(m.matrix_mgf(a)(0, 0), m.lst(s), 1e-10);
  }
}

TEST(ServiceTimeModel, FromParametersBuildsFourClasses) {
  ServiceParameters p;
  p.p_i = 0.3;
  p.q_i = 1.0;
  p.q_p = 0.5;
  p.enc_i_mean = 2e-3;
  p.enc_p_mean = 1e-3;
  p.tx_i_mean = 3e-3;
  p.tx_p_mean = 1e-3;
  p.success_prob = 0.9;
  p.backoff_rate = 500.0;
  const auto m = ServiceTimeModel::from_parameters(p);
  // weights: I-enc 0.3, P-enc 0.35, P-clear 0.35 (I-clear weight 0 dropped).
  ASSERT_EQ(m.components().size(), 3u);
  double total = 0.0;
  for (const auto& c : m.components()) total += c.weight;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Expected mean: 0.3*(5e-3) + 0.35*(2e-3) + 0.35*(1e-3) + backoff.
  const double backoff = (0.1 / 0.9) / 500.0;
  EXPECT_NEAR(m.mean(), 0.3 * 5e-3 + 0.35 * 2e-3 + 0.35 * 1e-3 + backoff,
              1e-12);
}

TEST(ServiceTimeModel, ValidatesInputs) {
  EXPECT_THROW(ServiceTimeModel({}, BackoffModel{0.9, 1.0}),
               std::invalid_argument);
  // Weights must sum to one.
  EXPECT_THROW(ServiceTimeModel({{0.5, 1e-3, 0.0}}, BackoffModel{0.9, 1.0}),
               std::invalid_argument);
  // Jitter beyond the minor-variations regime is rejected (would break the
  // Gaussian MGF in the solver).
  EXPECT_THROW(ServiceTimeModel({{1.0, 1e-3, 0.9e-3}}, BackoffModel{0.9, 1.0}),
               std::invalid_argument);
  // Bad backoff.
  EXPECT_THROW(ServiceTimeModel({{1.0, 1e-3, 0.0}}, BackoffModel{0.0, 1.0}),
               std::invalid_argument);
  ServiceParameters p;
  p.q_i = 1.4;
  EXPECT_THROW(ServiceTimeModel::from_parameters(p), std::invalid_argument);
}

TEST(ServiceTimeModel, RejectsNonFiniteInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const BackoffModel backoff{0.9, 1.0};
  for (const double bad : {nan, inf}) {
    EXPECT_THROW(ServiceTimeModel({{bad, 1e-3, 0.0}}, backoff),
                 std::invalid_argument);
    EXPECT_THROW(ServiceTimeModel({{1.0, bad, 0.0}}, backoff),
                 std::invalid_argument);
    EXPECT_THROW(ServiceTimeModel({{1.0, 1e-3, bad}}, backoff),
                 std::invalid_argument);
    EXPECT_THROW(
        ServiceTimeModel({{0.5, 1e-3, 0.0}, {bad, 1e-3, 0.0}}, backoff),
        std::invalid_argument);
  }

  ServiceParameters p;
  p.tx_i_mean = 1e-3;
  p.tx_p_mean = 1e-3;
  EXPECT_NO_THROW((void)ServiceTimeModel::from_parameters(p));
  for (double ServiceParameters::*field :
       {&ServiceParameters::p_i, &ServiceParameters::q_i,
        &ServiceParameters::q_p, &ServiceParameters::tx_i_mean,
        &ServiceParameters::tx_i_stddev, &ServiceParameters::tx_p_mean,
        &ServiceParameters::tx_p_stddev}) {
    ServiceParameters bad = p;
    bad.*field = nan;
    EXPECT_THROW((void)ServiceTimeModel::from_parameters(bad),
                 std::invalid_argument);
  }
  // An encryption stage reaches the model only through an encrypted class.
  p.q_i = 1.0;
  p.enc_i_mean = nan;
  EXPECT_THROW((void)ServiceTimeModel::from_parameters(p),
               std::invalid_argument);
}

}  // namespace
}  // namespace tv::queueing
