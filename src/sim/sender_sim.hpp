// Discrete-event simulation of the paper's sender (Sections 4.2.1-4.2.3).
//
// Independent ground truth for the analytic 2-MMPP/G/1 machinery: unlike
// queueing::ServiceTimeModel — which folds encryption and transmission into
// per-class Gaussian mixture components before the solver ever sees them —
// this simulator draws every physical stage separately, exactly as the
// paper describes the sender:
//
//   * the modulating chain switches between the I-burst and P-drain states
//     (rates r12/r21); the next switch and the next arrival are competing
//     exponential clocks, and a switch redraws the pending arrival at the
//     new state's rate (exact, by memorylessness);
//   * each arriving packet draws its frame class (I w.p. p_i), whether the
//     policy encrypts it (q_i / q_p), an encryption time T_e (eq. 15, only
//     when encrypted), a MAC backoff T_b (eqs. 6-7: a geometric number of
//     Exp(lambda_b) collision waits, drawn exactly as 0 w.p. p_s else
//     Exp(p_s lambda_b)), and a transmission time T_t (eq. 16);
//   * the server is a FIFO single server, so no event heap is needed: each
//     packet starts service at max(arrival, previous departure), and its
//     wait is measured from arrival to that start.  One pass over the
//     arrivals in order is the whole simulation.
//
// Every stage draws from its own RNG stream (util::derive_seed), so no
// stage's consumption pattern can alias another's.  Waiting times of
// successive packets are heavily autocorrelated, so the result also
// carries batch-mean statistics: the per-batch means are near-independent
// and give an honest confidence interval for E[W] (docs/validation.md).
#pragma once

#include <cstdint>

#include "core/trace.hpp"
#include "queueing/mmpp.hpp"
#include "queueing/service_time.hpp"
#include "util/stats.hpp"

namespace tv::sim {

struct SenderSimSpec {
  queueing::Mmpp2 arrivals;          ///< the 2-MMPP of eq. (1).
  queueing::ServiceParameters service;  ///< per-stage draws (Section 4.2.2).
  std::uint64_t events = 400000;     ///< measured packets after warmup.
  std::uint64_t warmup = 40000;      ///< discarded transient packets.
  std::uint64_t batches = 200;       ///< batch count for batch-mean CIs.
  std::uint64_t seed = 1;
  /// Optional per-packet stage instrumentation: the service stage emits
  /// encrypt/backoff/transmit events (packet = 0-based served index,
  /// time = service start).  Null (the default) costs nothing and leaves
  /// every draw identical.
  core::TraceSink* trace = nullptr;

  /// Throws std::invalid_argument on non-positive sizes or unstable load.
  void validate() const;
};

struct SenderSimResult {
  util::RunningStats wait;      ///< per-packet queueing delay W.
  util::RunningStats service;   ///< per-packet service time S.
  util::RunningStats sojourn;   ///< W + S.
  /// Means of `spec.batches` equal-count batches of consecutive waits:
  /// the accumulator whose ci95_halfwidth() is statistically honest.
  util::RunningStats wait_batch_means;

  // Per-modulating-state decomposition at arrival instants.
  util::RunningStats wait_state1;  ///< waits of packets arriving in state 1.
  util::RunningStats wait_state2;
  std::uint64_t arrivals_state1 = 0;
  std::uint64_t arrivals_state2 = 0;

  // Virtual-time occupancies over the measurement window.
  double measured_time = 0.0;    ///< virtual seconds observed after warmup.
  /// Chain-occupancy window: ends at the last arrival (the chain stops
  /// evolving once arrivals stop, so later time would bias the fraction).
  double chain_time = 0.0;
  double state1_time = 0.0;      ///< time the modulating chain spent in 1.
  double busy_time = 0.0;        ///< time the server spent serving.
  std::uint64_t served = 0;

  /// Empirical rho: busy fraction of the measurement window.
  [[nodiscard]] double utilization() const;
  /// Empirical P(J = 1): compare against Mmpp2::stationary()[0].
  [[nodiscard]] double state1_fraction() const;
  /// Empirical share of arrivals seen in state 1: compare against
  /// pi_1 lambda_1 / lambda_bar.
  [[nodiscard]] double arrival_state1_fraction() const;
};

/// Run the sender simulation.  Deterministic in spec.seed.
[[nodiscard]] SenderSimResult simulate_sender(const SenderSimSpec& spec);

}  // namespace tv::sim
