#include "queueing/service_time.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace tv::queueing {

BackoffModel::BackoffModel(double success_prob, double rate)
    : success_prob_(success_prob), rate_(rate) {
  // Negated comparisons so NaN is rejected too.
  if (!(success_prob > 0.0 && success_prob <= 1.0)) {
    throw std::invalid_argument{
        "BackoffModel: MAC success probability p_s must be in (0, 1], got " +
        std::to_string(success_prob)};
  }
  if (!(rate > 0.0 && std::isfinite(rate))) {
    throw std::invalid_argument{
        "BackoffModel: backoff rate lambda_b must be positive and finite, "
        "got " +
        std::to_string(rate)};
  }
}

double BackoffModel::mean() const {
  return (1.0 - success_prob_) / (success_prob_ * rate_);
}

double BackoffModel::moment2() const {
  const double p = success_prob_;
  return 2.0 * (1.0 - p) / (p * p * rate_ * rate_);
}

double BackoffModel::moment3() const {
  const double p = success_prob_;
  return 6.0 * (1.0 - p) / (p * p * p * rate_ * rate_ * rate_);
}

double BackoffModel::lst(double s) const {
  return success_prob_ * (rate_ + s) / (s + success_prob_ * rate_);
}

ServiceTimeModel::ServiceTimeModel(std::vector<GaussianComponent> components,
                                   BackoffModel backoff)
    : components_(std::move(components)), backoff_(backoff) {
  if (components_.empty()) {
    throw std::invalid_argument{"ServiceTimeModel: no components"};
  }
  // Negated comparisons so NaN is rejected too.
  auto finite_non_negative = [](double x) {
    return x >= 0.0 && std::isfinite(x);
  };
  double total = 0.0;
  for (const auto& c : components_) {
    if (!(finite_non_negative(c.weight) && finite_non_negative(c.mean) &&
          finite_non_negative(c.stddev))) {
      throw std::invalid_argument{"ServiceTimeModel: bad component"};
    }
    // The Gaussian terms model *minor* variations (eq. 15); a large sigma
    // makes the Gaussian MGF blow up in the matrix-analytic solver (its
    // e^{sigma^2 s^2 / 2} tail dominates), so reject miscalibrated inputs
    // loudly instead of producing NaNs.
    if (c.stddev > 0.5 * c.mean + 1e-12) {
      throw std::invalid_argument{
          "ServiceTimeModel: component stddev too large for the "
          "minor-variations Gaussian model (eq. 15); stddev must be <= "
          "mean / 2"};
    }
    total += c.weight;
  }
  if (!(std::abs(total - 1.0) <= 1e-9)) {
    throw std::invalid_argument{"ServiceTimeModel: weights must sum to 1"};
  }
}

ServiceTimeModel ServiceTimeModel::from_parameters(
    const ServiceParameters& p) {
  auto probability = [](double x) { return x >= 0.0 && x <= 1.0; };
  if (!(probability(p.p_i) && probability(p.q_i) && probability(p.q_p))) {
    throw std::invalid_argument{"from_parameters: probabilities out of range"};
  }
  auto var_sum = [](double a, double b) { return std::sqrt(a * a + b * b); };
  std::vector<GaussianComponent> comps;
  // I-frame packet, encrypted: T_e,I + T_t,I.
  comps.push_back({p.p_i * p.q_i, p.enc_i_mean + p.tx_i_mean,
                   var_sum(p.enc_i_stddev, p.tx_i_stddev)});
  // I-frame packet, clear: T_t,I only.
  comps.push_back({p.p_i * (1.0 - p.q_i), p.tx_i_mean, p.tx_i_stddev});
  // P-frame packet, encrypted.
  comps.push_back({(1.0 - p.p_i) * p.q_p, p.enc_p_mean + p.tx_p_mean,
                   var_sum(p.enc_p_stddev, p.tx_p_stddev)});
  // P-frame packet, clear.
  comps.push_back(
      {(1.0 - p.p_i) * (1.0 - p.q_p), p.tx_p_mean, p.tx_p_stddev});
  // Drop zero-weight components for numerical tidiness.
  std::vector<GaussianComponent> kept;
  for (const auto& c : comps) {
    if (c.weight > 0.0) kept.push_back(c);
  }
  return ServiceTimeModel{std::move(kept),
                          BackoffModel{p.success_prob, p.backoff_rate}};
}

double ServiceTimeModel::mean() const {
  double m = 0.0;
  for (const auto& c : components_) m += c.weight * c.mean;
  return m + backoff_.mean();
}

double ServiceTimeModel::moment2() const {
  // S = X + B with X the Gaussian mixture and B the backoff.
  double x1 = 0.0;
  double x2 = 0.0;
  for (const auto& c : components_) {
    x1 += c.weight * c.mean;
    x2 += c.weight * (c.mean * c.mean + c.stddev * c.stddev);
  }
  return x2 + 2.0 * x1 * backoff_.mean() + backoff_.moment2();
}

double ServiceTimeModel::moment3() const {
  double x1 = 0.0;
  double x2 = 0.0;
  double x3 = 0.0;
  for (const auto& c : components_) {
    const double v = c.stddev * c.stddev;
    x1 += c.weight * c.mean;
    x2 += c.weight * (c.mean * c.mean + v);
    x3 += c.weight * (c.mean * c.mean * c.mean + 3.0 * c.mean * v);
  }
  return x3 + 3.0 * x2 * backoff_.mean() + 3.0 * x1 * backoff_.moment2() +
         backoff_.moment3();
}

double ServiceTimeModel::lst(double s) const {
  double acc = 0.0;
  for (const auto& c : components_) {
    acc += c.weight *
           std::exp(-c.mean * s + 0.5 * c.stddev * c.stddev * s * s);
  }
  return acc * backoff_.lst(s);
}

util::Matrix ServiceTimeModel::matrix_mgf(const util::Matrix& a) const {
  const std::size_t n = a.rows();
  // Gaussian mixture factor: sum_c w_c expm(mu_c A + sigma_c^2/2 A^2).
  const util::Matrix a2 = a * a;
  util::Matrix mix(n, n);
  for (const auto& c : components_) {
    util::Matrix arg = a * c.mean;
    arg += a2 * (0.5 * c.stddev * c.stddev);
    mix += util::expm(arg) * c.weight;
  }
  // Backoff factor: p_s (I - (1-p_s) lambda_b (lambda_b I - A)^{-1})^{-1}.
  const double ps = backoff_.success_prob();
  const double lb = backoff_.rate();
  util::Matrix lbi_minus_a = util::Matrix::identity(n) * lb;
  lbi_minus_a -= a;
  const util::Matrix m = util::inverse(lbi_minus_a) * lb;
  util::Matrix inner = util::Matrix::identity(n);
  inner -= m * (1.0 - ps);
  const util::Matrix backoff_factor = util::inverse(inner) * ps;
  // All factors are rational/entire functions of the same matrix A, so
  // they commute; the order below is arbitrary.
  return mix * backoff_factor;
}

}  // namespace tv::queueing
