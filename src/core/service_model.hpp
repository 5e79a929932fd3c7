// The single service law of eq. (3): T = T_e(P) + T_b + T_t.
//
// Every per-packet stage draw of the sender — encryption time T_e (eq. 15),
// MAC backoff T_b (eqs. 6-7; a geometric number of Exp(lambda_b) collision
// waits, drawn in closed form by queueing::BackoffModel), and transmission
// time T_t (eq. 16) — lives here and nowhere else.  Both implementations of
// the sender consume this model:
//
//   * core::simulate_transfer (the packet-faithful transfer pipeline) draws
//     all three stages from its single per-transfer RNG;
//   * sim::simulate_sender (the discrete-event 2-MMPP/G/1 validator) draws
//     each stage from its own derived RNG stream.
//
// The draw functions take the RNG as a parameter precisely so both stream
// disciplines share one implementation: identical seeds and parameters
// produce bit-identical stage draws (pinned by ServiceModelEquivalence
// tests).  Any calibration or resilience change to the service law is made
// here once and both simulators pick it up.
#pragma once

#include <algorithm>
#include <cstddef>

#include "core/device_profile.hpp"
#include "queueing/service_time.hpp"
#include "util/rng.hpp"

namespace tv::core {

/// Owner of the per-packet T_e/T_b/T_t draws.  The MAC knobs (per-attempt
/// success probability p_s and backoff wait rate lambda_b) are state; the
/// Gaussian stages are parameterised per draw because their means depend on
/// the packet (payload size, frame class) at each call site.
class ServiceModel {
 public:
  /// Throws std::invalid_argument unless 0 < mac_success_prob <= 1 and
  /// 0 < backoff_rate < inf (see queueing::BackoffModel).
  ServiceModel(double mac_success_prob, double backoff_rate)
      : backoff_(mac_success_prob, backoff_rate) {}

  /// The T_b law: p_s of eq. (6) and lambda_b of eq. (7), 1/s.
  [[nodiscard]] const queueing::BackoffModel& backoff() const {
    return backoff_;
  }

  /// T_e (eq. 15): Gaussian around the per-packet mean, clamped at zero.
  /// Consumes exactly one Gaussian variate from `rng`.  Callers skip the
  /// call entirely for packets the policy leaves clear (the point mass at
  /// T_e = 0).
  [[nodiscard]] static double draw_encryption(util::Rng& rng, double mean_s,
                                              double stddev_s) {
    return std::max(0.0, rng.gaussian(mean_s, stddev_s));
  }

  /// T_e convenience: mean from the calibrated DeviceProfile's measured
  /// per-byte encryption speed, jitter from the same calibration.
  [[nodiscard]] static double draw_encryption(util::Rng& rng,
                                              const DeviceProfile& device,
                                              crypto::Algorithm algorithm,
                                              std::size_t payload_bytes) {
    return draw_encryption(rng,
                           device.encryption_seconds(algorithm, payload_bytes),
                           device.speed(algorithm).jitter_stddev_s);
  }

  /// T_b (eqs. 6-7): zero with probability p_s, otherwise one
  /// Exp(p_s lambda_b) variate — the exact law of the geometric number of
  /// Exp(lambda_b) collision waits (queueing::BackoffModel::sample).
  /// Consumes at most one uniform and one exponential variate from `rng`.
  [[nodiscard]] double draw_backoff(util::Rng& rng) const {
    return backoff_.sample(rng);
  }

  /// T_t (eq. 16): Gaussian around the PHY transmission time, clamped at
  /// zero.  Consumes exactly one Gaussian variate from `rng`.
  [[nodiscard]] static double draw_transmission(util::Rng& rng, double mean_s,
                                                double stddev_s) {
    return std::max(0.0, rng.gaussian(mean_s, stddev_s));
  }

 private:
  queueing::BackoffModel backoff_;
};

}  // namespace tv::core
