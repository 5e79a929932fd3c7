// Distribution checks for the MAC backoff T_b of eqs. (6)-(7).
//
// T_b is a geometric number K of collisions (P(K = k) = (1 - p_s)^k p_s),
// each followed by an Exp(lambda_b) wait.  Its LST (eq. 7) factors as
// p_s + (1 - p_s) * mu / (s + mu) with mu = p_s lambda_b: T_b is 0 with
// probability p_s and otherwise Exp(mu).  The checks below hold any T_b
// sampler to that law rather than to one particular RNG stream, so they
// survive a change of draw discipline and catch a change of distribution:
//
//   * the fraction of zero draws matches p_s;
//   * the sample mean and second moment match BackoffModel::mean() and
//     moment2() — both bounds are kSigmas standard errors computed from the
//     law's own higher moments (E[T_b^k] = (1 - p_s) k! / mu^k);
//   * the positive draws pass a one-sample Kolmogorov-Smirnov test against
//     Exp(mu) at alpha ~ 1e-4.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "queueing/service_time.hpp"
#include "util/rng.hpp"

namespace tv::backoff_law {

/// The MAC success rates the law is checked at: the paper's operating
/// point, a busy cell and a crowded one (p_s falls to ~0.003 in a
/// 3000-flow cell).
inline constexpr double kSuccessProbs[] = {0.78, 0.1, 0.003};

inline constexpr double kSigmas = 5.0;
/// Asymptotic KS critical value sqrt(-ln(alpha / 2) / 2) at alpha = 1e-4.
inline constexpr double kKsCritical = 2.23;

/// Draws `n` samples with `draw()` and holds them to `law`.
template <typename Draw>
void expect_follows_law(const queueing::BackoffModel& law, std::size_t n,
                        Draw draw) {
  const double p = law.success_prob();
  const double mu = p * law.rate();
  const double m1 = law.mean();
  const double m2 = law.moment2();
  const double m4 = (1.0 - p) * 24.0 / std::pow(mu, 4);
  SCOPED_TRACE(::testing::Message() << "p_s = " << p << ", lambda_b = "
                                    << law.rate() << ", n = " << n);

  std::size_t zeros = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  std::vector<double> positive;
  positive.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = draw();
    ASSERT_TRUE(std::isfinite(x)) << "draw " << i;
    ASSERT_GE(x, 0.0) << "draw " << i;
    sum += x;
    sum_sq += x * x;
    if (x == 0.0) {
      ++zeros;
    } else {
      positive.push_back(x);
    }
  }
  const double dn = static_cast<double>(n);

  EXPECT_NEAR(static_cast<double>(zeros) / dn, p,
              kSigmas * std::sqrt(p * (1.0 - p) / dn))
      << "P(T_b = 0)";
  EXPECT_NEAR(sum / dn, m1, kSigmas * std::sqrt((m2 - m1 * m1) / dn))
      << "E[T_b]";
  EXPECT_NEAR(sum_sq / dn, m2, kSigmas * std::sqrt((m4 - m2 * m2) / dn))
      << "E[T_b^2]";

  ASSERT_FALSE(positive.empty());
  std::sort(positive.begin(), positive.end());
  const double m = static_cast<double>(positive.size());
  double d = 0.0;
  for (std::size_t i = 0; i < positive.size(); ++i) {
    const double cdf = -std::expm1(-mu * positive[i]);
    d = std::max({d, static_cast<double>(i + 1) / m - cdf,
                  cdf - static_cast<double>(i) / m});
  }
  EXPECT_LT(d * std::sqrt(m), kKsCritical)
      << "KS distance " << d << " of the " << positive.size()
      << " positive draws from Exp(p_s lambda_b)";
}

/// How many 64-bit words `after` has advanced past `before`, looking at
/// most `limit` words ahead; limit + 1 when it is further than that.
/// Two Rng states are taken as equal when their next outputs agree.
inline int words_consumed(const util::Rng& before, const util::Rng& after,
                          int limit) {
  util::Rng probe = before;
  for (int k = 0; k <= limit; ++k) {
    util::Rng a = probe;
    util::Rng b = after;
    if (a() == b()) return k;
    (void)probe();
  }
  return limit + 1;
}

}  // namespace tv::backoff_law
