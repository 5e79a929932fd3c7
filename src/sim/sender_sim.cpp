#include "sim/sender_sim.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/service_model.hpp"
#include "util/rng.hpp"

namespace tv::sim {

namespace {

// Purpose tags for the per-stage RNG streams (util::derive_seed).
enum Stream : std::uint64_t {
  kChain = 1,    // modulating-state sojourns and the initial state.
  kArrival = 2,  // interarrival exponentials.
  kClass = 3,    // frame class + encrypt-or-not coin flips.
  kEncrypt = 4,  // T_e Gaussians.
  kBackoff = 5,  // T_b draws (a uniform, then at most one Exp).
  kTransmit = 6, // T_t Gaussians.
};

struct StageDraws {
  const SenderSimSpec& spec;
  util::Rng class_rng, enc_rng, backoff_rng, tx_rng;
  core::ServiceModel model;

  explicit StageDraws(const SenderSimSpec& s)
      : spec(s),
        class_rng(util::derive_seed(s.seed, kClass)),
        enc_rng(util::derive_seed(s.seed, kEncrypt)),
        backoff_rng(util::derive_seed(s.seed, kBackoff)),
        tx_rng(util::derive_seed(s.seed, kTransmit)),
        model(s.service.success_prob, s.service.backoff_rate) {}

  // One packet's service time.  The T_e/T_b/T_t stage draws all come from
  // the shared core::ServiceModel — the same service law
  // core::simulate_transfer composes — each stage consuming its own
  // derived RNG stream.  Trace events carry the service start time.
  [[nodiscard]] double draw(std::int64_t packet, double start) {
    const auto& p = spec.service;
    const bool is_i = class_rng.bernoulli(p.p_i);
    const bool encrypted = class_rng.bernoulli(is_i ? p.q_i : p.q_p);
    const auto emit = [&](const char* kind, double seconds) {
      if (spec.trace != nullptr) {
        spec.trace->event(
            {core::Stage::kService, kind, packet, -1, start, seconds});
      }
    };
    double total_s = 0.0;
    if (encrypted) {
      const double t_e = core::ServiceModel::draw_encryption(
          enc_rng, is_i ? p.enc_i_mean : p.enc_p_mean,
          is_i ? p.enc_i_stddev : p.enc_p_stddev);
      total_s += t_e;
      emit("encrypt", t_e);
    }
    const double t_b = model.draw_backoff(backoff_rng);
    total_s += t_b;
    emit("backoff", t_b);
    const double t_t = core::ServiceModel::draw_transmission(
        tx_rng, is_i ? p.tx_i_mean : p.tx_p_mean,
        is_i ? p.tx_i_stddev : p.tx_p_stddev);
    total_s += t_t;
    emit("transmit", t_t);
    return total_s;
  }
};

}  // namespace

void SenderSimSpec::validate() const {
  arrivals.validate();
  if (events == 0) {
    throw std::invalid_argument{"SenderSimSpec: events == 0"};
  }
  if (batches < 2 || batches > events) {
    throw std::invalid_argument{
        "SenderSimSpec: batches must be in [2, events]"};
  }
  // from_parameters validates every service knob and gives the mean needed
  // for the stability check.
  const auto model = queueing::ServiceTimeModel::from_parameters(service);
  const double rho = arrivals.mean_rate() * model.mean();
  if (!(rho < 1.0)) {
    throw std::domain_error{
        "SenderSimSpec: unstable queue (rho >= 1); the simulated backlog "
        "would grow without bound"};
  }
}

double SenderSimResult::utilization() const {
  return measured_time > 0.0 ? busy_time / measured_time : 0.0;
}

double SenderSimResult::state1_fraction() const {
  return chain_time > 0.0 ? state1_time / chain_time : 0.0;
}

double SenderSimResult::arrival_state1_fraction() const {
  const std::uint64_t total = arrivals_state1 + arrivals_state2;
  return total > 0
             ? static_cast<double>(arrivals_state1) /
                   static_cast<double>(total)
             : 0.0;
}

SenderSimResult simulate_sender(const SenderSimSpec& spec) {
  spec.validate();
  const queueing::Mmpp2& mmpp = spec.arrivals;
  util::Rng chain_rng{util::derive_seed(spec.seed, kChain)};
  util::Rng arrival_rng{util::derive_seed(spec.seed, kArrival)};
  StageDraws stages{spec};
  SenderSimResult result;

  const std::uint64_t total = spec.warmup + spec.events;
  const std::uint64_t batch_size = spec.events / spec.batches;
  std::uint64_t batch_fill = 0;
  double batch_sum = 0.0;

  // Start the modulating chain from its stationary distribution; the state
  // is 1-based, matching MmppArrival.
  const util::Vector pi = mmpp.stationary();
  int state = chain_rng.uniform() < pi[0] ? 1 : 2;
  const auto rate = [&] { return state == 1 ? mmpp.lambda1 : mmpp.lambda2; };
  const auto leave_rate = [&] { return state == 1 ? mmpp.r12 : mmpp.r21; };

  // The two competing clocks.  A time tie goes to the clock drawn first.
  double next_switch = chain_rng.exponential(leave_rate());
  double next_arrival = arrival_rng.exponential(rate());
  bool switch_drawn_first = true;

  // The measurement window opens at the service start of packet warmup+1,
  // which is known as soon as that packet arrives; -1 = not yet.
  double window_start = -1.0;
  double state_changed_at = 0.0;
  // Accumulate state-1 occupancy up to `now`, clipped to the window.
  const auto account_state_time = [&](double now) {
    if (window_start >= 0.0 && state == 1) {
      const double from = std::max(state_changed_at, window_start);
      if (now > from) result.state1_time += now - from;
    }
    state_changed_at = now;
  };

  double server_free = 0.0;  // departure time of the previous packet.
  std::uint64_t arrived = 0;
  while (arrived < total) {
    if (next_switch < next_arrival ||
        (next_switch == next_arrival && switch_drawn_first)) {
      // By memorylessness, redrawing the pending arrival at the new rate is
      // exactly the modulated process.
      const double now = next_switch;
      account_state_time(now);
      state = state == 1 ? 2 : 1;
      next_arrival = now + arrival_rng.exponential(rate());
      next_switch = now + chain_rng.exponential(leave_rate());
      switch_drawn_first = false;
      continue;
    }

    // An arrival: FIFO single server, so service starts once both the
    // packet and the server are there.
    const double arrival = next_arrival;
    ++arrived;
    (state == 1 ? result.arrivals_state1 : result.arrivals_state2) += 1;
    const double start = std::max(arrival, server_free);
    const double wait = start - arrival;
    const double service =
        stages.draw(static_cast<std::int64_t>(arrived - 1), start);
    server_free = start + service;
    if (arrived > spec.warmup) {
      if (window_start < 0.0) window_start = start;
      result.wait.add(wait);
      result.service.add(service);
      result.sojourn.add(wait + service);
      (state == 1 ? result.wait_state1 : result.wait_state2).add(wait);
      result.busy_time += service;
      ++result.served;
      batch_sum += wait;
      if (++batch_fill == batch_size) {
        result.wait_batch_means.add(batch_sum /
                                    static_cast<double>(batch_size));
        batch_sum = 0.0;
        batch_fill = 0;
      }
    }
    if (arrived < total) {
      next_arrival = arrival + arrival_rng.exponential(rate());
      switch_drawn_first = true;
    }
  }

  // The chain-occupancy window closes at the last arrival (next_arrival is
  // not redrawn after it): the modulating chain is meaningless once
  // arrivals stop.
  const double chain_end = next_arrival;
  account_state_time(chain_end);
  result.measured_time = server_free - window_start;
  result.chain_time =
      chain_end > window_start ? chain_end - window_start : 0.0;
  return result;
}

}  // namespace tv::sim
