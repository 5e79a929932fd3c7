#include "sim/sender_sim.hpp"

#include <deque>
#include <stdexcept>

#include "core/service_model.hpp"
#include "sim/event_queue.hpp"
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

struct PendingPacket {
  double arrival = 0.0;
  int state = 1;
};

struct Sim {
  const SenderSimSpec& spec;
  EventQueue queue;
  util::Rng chain_rng, arrival_rng, class_rng, enc_rng, backoff_rng, tx_rng;
  core::ServiceModel service_model;

  SenderSimResult result;
  std::deque<PendingPacket> fifo;
  bool server_busy = false;
  int state = 1;  // 1-based, matching MmppArrival.
  EventId pending_arrival = 0;
  bool arrival_pending = false;

  std::uint64_t total = 0;
  std::uint64_t arrived = 0;
  std::uint64_t started = 0;
  std::uint64_t batch_size = 0;
  std::uint64_t batch_fill = 0;
  double batch_sum = 0.0;

  double window_start = -1.0;  // first measured service start; -1 = not yet.
  double window_end = 0.0;     // last departure processed.
  double state_changed_at = 0.0;
  double chain_end = 0.0;      // last arrival: chain occupancy stops here.
  bool chain_closed = false;

  explicit Sim(const SenderSimSpec& s)
      : spec(s),
        chain_rng(util::derive_seed(s.seed, kChain)),
        arrival_rng(util::derive_seed(s.seed, kArrival)),
        class_rng(util::derive_seed(s.seed, kClass)),
        enc_rng(util::derive_seed(s.seed, kEncrypt)),
        backoff_rng(util::derive_seed(s.seed, kBackoff)),
        tx_rng(util::derive_seed(s.seed, kTransmit)),
        service_model(s.service.success_prob, s.service.backoff_rate) {}

  [[nodiscard]] double rate() const {
    return state == 1 ? spec.arrivals.lambda1 : spec.arrivals.lambda2;
  }
  [[nodiscard]] double leave_rate() const {
    return state == 1 ? spec.arrivals.r12 : spec.arrivals.r21;
  }

  // The T_e/T_b/T_t stage draws all come from the shared core::ServiceModel
  // — the same service law core::simulate_transfer composes — each stage
  // consuming its own derived RNG stream.
  [[nodiscard]] double draw_service() {
    const auto& p = spec.service;
    const bool is_i = class_rng.bernoulli(p.p_i);
    const bool encrypted = class_rng.bernoulli(is_i ? p.q_i : p.q_p);
    const auto packet = static_cast<std::int64_t>(started);
    const double now = queue.now();
    double total_s = 0.0;
    if (encrypted) {
      const double t_e =
          is_i ? core::ServiceModel::draw_encryption(enc_rng, p.enc_i_mean,
                                                     p.enc_i_stddev)
               : core::ServiceModel::draw_encryption(enc_rng, p.enc_p_mean,
                                                     p.enc_p_stddev);
      total_s += t_e;
      if (spec.trace != nullptr) {
        spec.trace->event(
            {core::Stage::kService, "encrypt", packet, -1, now, t_e});
      }
    }
    const double t_b = service_model.draw_backoff(backoff_rng);
    total_s += t_b;
    if (spec.trace != nullptr) {
      spec.trace->event(
          {core::Stage::kService, "backoff", packet, -1, now, t_b});
    }
    const double t_t =
        is_i ? core::ServiceModel::draw_transmission(tx_rng, p.tx_i_mean,
                                                     p.tx_i_stddev)
             : core::ServiceModel::draw_transmission(tx_rng, p.tx_p_mean,
                                                     p.tx_p_stddev);
    total_s += t_t;
    if (spec.trace != nullptr) {
      spec.trace->event(
          {core::Stage::kService, "transmit", packet, -1, now, t_t});
    }
    return total_s;
  }

  // Accumulate modulating-state occupancy up to now, clipped to the
  // measurement window.
  void account_state_time(double now) {
    if (window_start >= 0.0 && state == 1) {
      const double from =
          state_changed_at > window_start ? state_changed_at : window_start;
      if (now > from) result.state1_time += now - from;
    }
    state_changed_at = now;
  }

  void schedule_arrival() {
    pending_arrival = queue.schedule_in(
        arrival_rng.exponential(rate()), [this] { on_arrival(); });
    arrival_pending = true;
  }

  void schedule_switch() {
    queue.schedule_in(chain_rng.exponential(leave_rate()),
                      [this] { on_switch(); });
  }

  void on_switch() {
    if (chain_closed) return;  // stale event from before arrivals stopped.
    account_state_time(queue.now());
    state = state == 1 ? 2 : 1;
    if (arrived < total) {
      // The tentative next arrival was drawn at the old rate; by
      // memorylessness, cancelling it and redrawing at the new rate is
      // exactly the modulated process.
      if (arrival_pending) queue.cancel(pending_arrival);
      schedule_arrival();
      schedule_switch();
    }
  }

  void on_arrival() {
    arrival_pending = false;
    ++arrived;
    (state == 1 ? result.arrivals_state1 : result.arrivals_state2) += 1;
    fifo.push_back({queue.now(), state});
    if (!server_busy) start_service();
    if (arrived < total) {
      schedule_arrival();
    } else {
      // Close the chain-occupancy window here: the modulating chain is
      // meaningless once arrivals stop, and a stale switch event firing
      // after the last departure must not extend the occupancy clock.
      account_state_time(queue.now());
      chain_end = queue.now();
      chain_closed = true;
    }
  }

  void start_service() {
    const PendingPacket packet = fifo.front();
    fifo.pop_front();
    server_busy = true;
    const double now = queue.now();
    const double wait = now - packet.arrival;
    const double service = draw_service();
    ++started;
    if (started > spec.warmup) {
      if (window_start < 0.0) {
        window_start = now;
        account_state_time(now);  // clip the occupancy clock to the window.
      }
      result.wait.add(wait);
      result.service.add(service);
      result.sojourn.add(wait + service);
      (packet.state == 1 ? result.wait_state1 : result.wait_state2).add(wait);
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
    queue.schedule_in(service, [this] { on_departure(); });
  }

  void on_departure() {
    server_busy = false;
    window_end = queue.now();
    if (!fifo.empty()) start_service();
  }

  SenderSimResult run() {
    total = spec.warmup + spec.events;
    batch_size = spec.events / spec.batches;

    // Start the modulating chain from its stationary distribution.
    const util::Vector pi = spec.arrivals.stationary();
    state = chain_rng.uniform() < pi[0] ? 1 : 2;
    state_changed_at = 0.0;
    schedule_switch();
    schedule_arrival();

    // Drain: once `total` packets have arrived no new arrivals or chain
    // sojourns are scheduled, so the heap empties after the backlog is
    // served (plus at most one stale switch event).
    queue.run();

    result.measured_time =
        window_start >= 0.0 ? window_end - window_start : 0.0;
    result.chain_time =
        window_start >= 0.0 && chain_end > window_start
            ? chain_end - window_start
            : 0.0;
    return result;
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
  if (rho >= 1.0) {
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
  Sim sim{spec};
  return sim.run();
}

}  // namespace tv::sim
