#include "queueing/mmpp.hpp"

#include <cmath>
#include <stdexcept>

namespace tv::queueing {

util::Matrix Mmpp2::generator() const {
  return util::Matrix{{-r12, r12}, {r21, -r21}};
}

util::Matrix Mmpp2::rate_matrix() const {
  return util::Matrix{{lambda1, 0.0}, {0.0, lambda2}};
}

util::Vector Mmpp2::rate_vector() const { return {lambda1, lambda2}; }

util::Vector Mmpp2::stationary() const {
  const double total = r12 + r21;
  return {r21 / total, r12 / total};
}

double Mmpp2::mean_rate() const {
  const util::Vector pi = stationary();
  return pi[0] * lambda1 + pi[1] * lambda2;
}

namespace {

// NaN fails both, as do infinities.
bool positive(double x) { return x > 0.0 && std::isfinite(x); }
bool non_negative(double x) { return x >= 0.0 && std::isfinite(x); }

}  // namespace

void Mmpp2::validate() const {
  if (!positive(r12) || !positive(r21) || !non_negative(lambda1) ||
      !non_negative(lambda2) || (lambda1 == 0.0 && lambda2 == 0.0)) {
    throw std::invalid_argument{"Mmpp2: rates must be positive and finite"};
  }
}

std::vector<MmppArrival> simulate_mmpp(const Mmpp2& mmpp, double horizon,
                                       util::Rng& rng) {
  mmpp.validate();
  std::vector<MmppArrival> arrivals;
  const util::Vector pi = mmpp.stationary();
  int state = rng.bernoulli(pi[0]) ? 1 : 2;
  double now = 0.0;
  while (now < horizon) {
    const double rate = state == 1 ? mmpp.lambda1 : mmpp.lambda2;
    const double leave = state == 1 ? mmpp.r12 : mmpp.r21;
    // Competing exponentials: next arrival vs. state change.
    const double total = rate + leave;
    now += rng.exponential(total);
    if (now >= horizon) break;
    if (rng.uniform() < rate / total) {
      arrivals.push_back({now, state});
    } else {
      state = state == 1 ? 2 : 1;
    }
  }
  return arrivals;
}

MmppN MmppN::from(const Mmpp2& two_state) {
  return MmppN{two_state.generator(), two_state.rate_vector()};
}

util::Matrix MmppN::rate_matrix() const {
  util::Matrix lam(states(), states());
  for (std::size_t i = 0; i < states(); ++i) lam(i, i) = rates[i];
  return lam;
}

util::Vector MmppN::stationary() const { return util::ctmc_stationary(q); }

double MmppN::mean_rate() const {
  return util::dot(stationary(), rates);
}

void MmppN::validate() const {
  if (states() < 1 || q.rows() != states() || q.cols() != states()) {
    throw std::invalid_argument{"MmppN: shape mismatch"};
  }
  double total_rate = 0.0;
  for (double r : rates) {
    if (!non_negative(r)) {
      throw std::invalid_argument{"MmppN: rates must be finite and >= 0"};
    }
    total_rate += r;
  }
  if (total_rate <= 0.0) {
    throw std::invalid_argument{"MmppN: all arrival rates zero"};
  }
  for (std::size_t i = 0; i < states(); ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < states(); ++j) {
      if (i != j && !non_negative(q(i, j))) {
        throw std::invalid_argument{
            "MmppN: transition rates must be finite and >= 0"};
      }
      row += q(i, j);
    }
    if (!(std::abs(row) <= 1e-9)) {
      throw std::invalid_argument{"MmppN: generator rows must sum to zero"};
    }
  }
}

Mmpp2 estimate_mmpp(const std::vector<LabelledArrival>& trace) {
  if (trace.size() < 4) {
    throw std::invalid_argument{"estimate_mmpp: trace too short"};
  }
  // Segment the trace into alternating runs of I-frame packets (state 1)
  // and P-frame packets (state 2).  A run's duration is measured from its
  // first arrival to the first arrival of the next run.
  struct Run {
    bool is_i;
    double start;
    double end;
    int count;
  };
  std::vector<Run> runs;
  for (const auto& a : trace) {
    if (runs.empty() || runs.back().is_i != a.from_i_frame) {
      runs.push_back({a.from_i_frame, a.time, a.time, 1});
    } else {
      runs.back().end = a.time;
      ++runs.back().count;
    }
  }
  double i_time = 0.0;
  double p_time = 0.0;
  long i_count = 0;
  long p_count = 0;
  long i_runs = 0;
  long p_runs = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const Run& run = runs[r];
    if (run.is_i) {
      // State 1 (burst) lasts only while I-frame packets stream in: from
      // the first to the last arrival plus one typical intra-burst gap.
      // The idle tail until the next P packet belongs to the slow state.
      double duration = run.end - run.start;
      if (run.count >= 2) {
        duration += duration / static_cast<double>(run.count - 1);
      } else if (r + 1 < runs.size()) {
        // A single-packet burst: charge a nominal gap.
        duration = 0.1 * (runs[r + 1].start - run.start);
      }
      i_time += duration;
      i_count += run.count;
      ++i_runs;
    } else {
      // State 2 spans from the run's first arrival to the start of the
      // next burst (its trailing idle time is genuinely slow-state time).
      const double end = r + 1 < runs.size() ? runs[r + 1].start : run.end;
      p_time += end - run.start;
      p_count += run.count;
      ++p_runs;
    }
  }
  if (i_time <= 0.0 || p_time <= 0.0 || i_runs == 0 || p_runs == 0) {
    throw std::invalid_argument{"estimate_mmpp: trace lacks both states"};
  }
  Mmpp2 out;
  out.lambda1 = static_cast<double>(i_count) / i_time;
  out.lambda2 = static_cast<double>(p_count) / p_time;
  out.r12 = static_cast<double>(i_runs) / i_time;   // leave state 1.
  out.r21 = static_cast<double>(p_runs) / p_time;   // leave state 2.
  out.validate();
  return out;
}

}  // namespace tv::queueing
