// The service-time model of Section 4.2.2: T = T_e(P) + T_b + T_t.
//
// A packet's service consists of
//   * T_e — encryption time, present only when the policy encrypts the
//     packet; Gaussian around a per-class mean (eq. 15, LST eq. 17);
//   * T_b — MAC backoff: a geometric number K of collisions (eq. 6), each
//     followed by an Exp(lambda_b) wait (LST eq. 7), drawn in closed form
//     (see BackoffModel);
//   * T_t — transmission time, Gaussian per frame class (eq. 16, LST 18).
//
// Because T_e and T_t for a given packet share the packet's class (I
// encrypted / I clear / P encrypted / P clear), we fold the two Gaussians
// of each class into one component; T_b convolves independently on top.
// The paper's printed eq. (4) omits the point mass of unencrypted packets
// at T_e = 0; the implementation includes it so every LST satisfies
// H(0) = 1 (see DESIGN.md).
#pragma once

#include <vector>

#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace tv::queueing {

/// One Gaussian mixture component of the non-backoff service part.
struct GaussianComponent {
  double weight = 1.0;
  double mean = 0.0;
  double stddev = 0.0;
};

/// The compound-geometric backoff of eq. (6)/(7): a geometric number K of
/// collisions (P(K = k) = (1 - p_s)^k p_s), each followed by an
/// Exp(lambda_b) wait.
///
/// Its LST p_s (lambda_b + s) / (s + p_s lambda_b) = p_s + (1 - p_s) *
/// p_s lambda_b / (s + p_s lambda_b) is that of a two-point mixture: T_b is
/// exactly 0 with probability p_s (no collision) and otherwise exactly
/// Exp(p_s lambda_b) (a geometric sum of i.i.d. exponentials is itself
/// exponential).  sample() draws that mixture directly, so one draw costs
/// at most one uniform and one exponential variate whatever p_s is.
class BackoffModel {
 public:
  /// Throws std::invalid_argument unless 0 < success_prob <= 1 and
  /// 0 < rate < inf.
  BackoffModel(double success_prob, double rate);

  /// p_s: per-attempt success rate.
  [[nodiscard]] double success_prob() const { return success_prob_; }
  /// lambda_b: rate of each collision wait.
  [[nodiscard]] double rate() const { return rate_; }

  [[nodiscard]] double mean() const;
  [[nodiscard]] double moment2() const;
  [[nodiscard]] double moment3() const;
  /// LST H_b(s) = p_s (lambda_b + s) / (s + p_s lambda_b), eq. (7).
  [[nodiscard]] double lst(double s) const;

  /// One T_b draw: a uniform against p_s, then (on a collision) one
  /// Exp(p_s lambda_b) variate.  Inline: it sits on the per-packet hot path
  /// of every sender simulator.
  [[nodiscard]] double sample(util::Rng& rng) const {
    if (rng.bernoulli(success_prob_)) return 0.0;
    return rng.exponential(success_prob_ * rate_);
  }

 private:
  double success_prob_;
  double rate_;
};

/// Inputs for the paper's packet-class construction.
struct ServiceParameters {
  double p_i = 0.1;       ///< probability a packet belongs to an I-frame.
  double q_i = 0.0;       ///< fraction of I-frame packets encrypted.
  double q_p = 0.0;       ///< fraction of P-frame packets encrypted.
  double enc_i_mean = 0.0;    ///< mu_e,I (s).
  double enc_i_stddev = 0.0;  ///< sigma_e,I.
  double enc_p_mean = 0.0;    ///< mu_e,P.
  double enc_p_stddev = 0.0;
  double tx_i_mean = 0.0;     ///< mu_t,I.
  double tx_i_stddev = 0.0;
  double tx_p_mean = 0.0;     ///< mu_t,P.
  double tx_p_stddev = 0.0;
  double success_prob = 1.0;  ///< p_s for the backoff term.
  double backoff_rate = 1.0;  ///< lambda_b.
};

/// Mixture-of-Gaussians plus compound-geometric-exponential service time.
class ServiceTimeModel {
 public:
  ServiceTimeModel(std::vector<GaussianComponent> components,
                   BackoffModel backoff);

  /// Build the four-class model of Section 4.2.2 from paper parameters.
  [[nodiscard]] static ServiceTimeModel from_parameters(
      const ServiceParameters& params);

  [[nodiscard]] const std::vector<GaussianComponent>& components() const {
    return components_;
  }
  [[nodiscard]] const BackoffModel& backoff() const { return backoff_; }

  /// Raw moments about the origin (mu^(1), mu^(2), mu^(3) of eq. 19).
  [[nodiscard]] double mean() const;
  [[nodiscard]] double moment2() const;
  [[nodiscard]] double moment3() const;

  /// Laplace-Stieltjes transform H(s) = H_e+t(s) H_b(s), eq. (10) with the
  /// Gaussian special case of eqs. (17)-(18).
  [[nodiscard]] double lst(double s) const;

  /// Matrix "LST": E[expm(A S)] for a square matrix A whose eigenvalues
  /// have nonpositive real part (A = Q - Lambda + Lambda G in the solver).
  /// Requires spectral radius of the exponential pieces to stay finite;
  /// the backoff factor needs eig(A) < lambda_b, always true here.
  [[nodiscard]] util::Matrix matrix_mgf(const util::Matrix& a) const;

 private:
  std::vector<GaussianComponent> components_;
  BackoffModel backoff_;
};

}  // namespace tv::queueing
