// Two-state Markov-modulated Poisson process (Section 4.2.1).
//
// State 1 models the back-to-back packets of a fragmented I-frame (rate
// lambda1, fast); state 2 the sparse P-frame packets (rate lambda2, slow).
// The transition rates p1 (1 -> 2) and p2 (2 -> 1) together with the rate
// matrix Lambda parameterize the arrival side of the 2-MMPP/G/1 queue,
// eq. (1); the equilibrium vector pi is eq. (2).
#pragma once

#include <cstdint>
#include <vector>

#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace tv::queueing {

struct Mmpp2 {
  double r12 = 1.0;      ///< p1 in the paper: rate of leaving state 1.
  double r21 = 1.0;      ///< p2 in the paper: rate of leaving state 2.
  double lambda1 = 1.0;  ///< arrival rate in state 1 (I-frame bursts).
  double lambda2 = 1.0;  ///< arrival rate in state 2 (P-frame packets).

  /// Infinitesimal generator R of the modulating chain, eq. (1).
  [[nodiscard]] util::Matrix generator() const;
  /// Diagonal rate matrix Lambda, eq. (1).
  [[nodiscard]] util::Matrix rate_matrix() const;
  /// Arrival-rate vector (diagonal of Lambda).
  [[nodiscard]] util::Vector rate_vector() const;
  /// Equilibrium probabilities of the modulating chain, eq. (2).
  [[nodiscard]] util::Vector stationary() const;
  /// Long-run mean arrival rate pi . lambda.
  [[nodiscard]] double mean_rate() const;

  /// Validate parameters (all rates positive); throws std::invalid_argument.
  void validate() const;
};

/// One simulated arrival.
struct MmppArrival {
  double time = 0.0;
  int state = 1;  ///< modulating state (1 or 2) at the arrival instant.
};

/// Sample an MMPP arrival sequence on [0, horizon) starting from the
/// stationary state distribution.
[[nodiscard]] std::vector<MmppArrival> simulate_mmpp(const Mmpp2& mmpp,
                                                     double horizon,
                                                     util::Rng& rng);

/// General n-state MMPP: the extension hook the paper defers to future
/// work (e.g. a third phase for B-frame traffic).  The MMPP/G/1 solver is
/// written against this representation; Mmpp2 converts into it.
struct MmppN {
  util::Matrix q;       ///< infinitesimal generator, n x n.
  util::Vector rates;   ///< Poisson rate per state, length n.

  [[nodiscard]] static MmppN from(const Mmpp2& two_state);

  [[nodiscard]] std::size_t states() const { return rates.size(); }
  [[nodiscard]] util::Matrix rate_matrix() const;
  [[nodiscard]] util::Vector stationary() const;
  [[nodiscard]] double mean_rate() const;
  void validate() const;
};

/// Method-of-moments estimator used by the calibration step of Fig. 1:
/// given packet arrival timestamps labelled by frame type, recover the
/// 2-MMPP parameters.  State-1 sojourns are the I-frame packet bursts;
/// state-2 sojourns the gaps of P-frame traffic between bursts.
struct LabelledArrival {
  double time = 0.0;
  bool from_i_frame = false;
};

[[nodiscard]] Mmpp2 estimate_mmpp(const std::vector<LabelledArrival>& trace);

}  // namespace tv::queueing
