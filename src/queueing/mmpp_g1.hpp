// Exact mean-delay analysis of the 2-MMPP/G/1 queue (Section 4.2.3).
//
// The paper computes E[W] via the Heffes-Lucantoni / Fischer-Meier-
// Hellstern matrix-analytic procedure (eq. 19); the printed formula is
// OCR-damaged, so this implementation derives the same quantity from first
// principles (full derivation in DESIGN.md Section 5):
//
//  1. Busy-period phase matrix G: minimal solution of
//         G = E[ expm((Q - Lambda + Lambda G) S) ],
//     computed by fixed-point iteration using the exact matrix MGF of the
//     service time (ServiceTimeModel::matrix_mgf).
//  2. Idle-phase occupancy u from the busy/idle cycle chain:
//         phi = phi G U,  U = (Lambda - Q)^{-1} Lambda,
//         u  propto  phi G (Lambda - Q)^{-1},  normalized to u e = 1 - rho.
//  3. Per-phase workload moments from Brumelle-style rate conservation:
//         v Q = (pi - u) - h1 (pi o lambda),
//     closed with E[V] = h1 (v . lambda) + lambda_bar h2 / 2; one order up
//     for second moments.  The mean waiting time of an *arriving* packet
//     is E[W] = (v . lambda) / lambda_bar (conditional PASTA), and its
//     second moment (w . lambda) / lambda_bar gives delay jitter.
//
// Degenerating the MMPP to Poisson reproduces Pollaczek-Khinchine exactly;
// the test suite pins this and cross-validates modulated cases against the
// discrete-event sender simulator in sim/sender_sim.hpp.
#pragma once

#include "queueing/mmpp.hpp"
#include "queueing/service_time.hpp"
#include "util/matrix.hpp"

namespace tv::queueing {

struct MmppG1Solution {
  double utilization = 0.0;       ///< rho = lambda_bar * h1.
  double mean_wait = 0.0;         ///< E[W]: mean queueing delay of arrivals.
  double wait_moment2 = 0.0;      ///< E[W^2] of arrivals.
  double mean_workload = 0.0;     ///< E[V]: time-stationary workload.
  double mean_sojourn = 0.0;      ///< E[W] + E[S].
  /// E[W | arrival in phase i] = v_i / pi_i (conditional PASTA: an arrival
  /// in phase i sees the time-stationary workload conditioned on J = i).
  /// Cross-checked against the per-state waits of the discrete-event
  /// sender simulator (sim::simulate_sender).
  util::Vector phase_wait;
  util::Matrix busy_period_phase; ///< G.
  util::Vector idle_phase;        ///< u_i = P(V = 0, J = i).
  int g_iterations = 0;

  /// Std deviation of the waiting time.
  [[nodiscard]] double wait_stddev() const;
};

class MmppG1Solver {
 public:
  /// The paper's two-state case.
  MmppG1Solver(const Mmpp2& arrivals, ServiceTimeModel service);
  /// General n-state MMPP (extension; see MmppN).
  MmppG1Solver(MmppN arrivals, ServiceTimeModel service);

  /// Solve the queue.  Throws std::domain_error if rho >= 1 and
  /// std::runtime_error if the G iteration fails to converge.
  [[nodiscard]] MmppG1Solution solve(double tolerance = 1e-13,
                                     int max_iterations = 20000) const;

 private:
  MmppN arrivals_;
  ServiceTimeModel service_;
};

}  // namespace tv::queueing
