#include "cell/validation.hpp"

#include <cmath>
#include <stdexcept>

#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tv::cell {

namespace {

using util::fmt;

/// Binomial standard-error estimate of a proportion over `trials`.
double proportion_se(double p, double trials) {
  if (trials <= 0.0) return 0.0;
  const double clamped = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
  return std::sqrt(clamped * (1.0 - clamped) / trials);
}

void add_check(CellValidationCellResult& r, const CellValidationSpec& spec,
               std::string name, double simulated, double analytic,
               double se) {
  CellValidationCheck check;
  check.name = std::move(name);
  check.simulated = simulated;
  check.analytic = analytic;
  check.tolerance = spec.z * se + spec.relative_slack * std::abs(analytic) +
                    spec.absolute_floor;
  check.ok = std::abs(simulated - analytic) <= check.tolerance;
  r.checks.push_back(std::move(check));
}

std::vector<wifi::DcfClass> cell_classes(const CellValidationSpec& spec,
                                         const CellValidationCell& cell) {
  std::vector<wifi::DcfClass> classes{
      {cell.contenders, cell.cw_min, cell.stages}};
  if (spec.background_stations > 0) {
    classes.push_back({spec.background_stations, spec.background_cw_min,
                       spec.background_stages});
  }
  return classes;
}

}  // namespace

void CellValidationSpec::validate() const {
  if (contenders.empty() || cw_mins.empty() || stage_counts.empty()) {
    throw std::invalid_argument{"CellValidationSpec: empty axis"};
  }
  for (int n : contenders) {
    if (n < 1) throw std::invalid_argument{"CellValidationSpec: n < 1"};
  }
  for (int w : cw_mins) {
    if (w < 1) throw std::invalid_argument{"CellValidationSpec: cw_min < 1"};
  }
  for (int m : stage_counts) {
    if (m < 0) throw std::invalid_argument{"CellValidationSpec: stages < 0"};
  }
  if (background_stations < 0 || background_cw_min < 1 ||
      background_stages < 0) {
    throw std::invalid_argument{"CellValidationSpec: bad background class"};
  }
  if (slots == 0) throw std::invalid_argument{"CellValidationSpec: no slots"};
  if (z <= 0.0 || relative_slack < 0.0 || absolute_floor < 0.0) {
    throw std::invalid_argument{"CellValidationSpec: bad acceptance band"};
  }
}

std::size_t CellValidationSpec::cell_count() const {
  return contenders.size() * cw_mins.size() * stage_counts.size();
}

std::vector<CellValidationCell> enumerate_validation_cells(
    const CellValidationSpec& spec) {
  std::vector<CellValidationCell> cells;
  cells.reserve(spec.cell_count());
  std::size_t index = 0;
  for (int n : spec.contenders) {
    for (int w : spec.cw_mins) {
      for (int m : spec.stage_counts) {
        CellValidationCell cell;
        cell.index = index;
        cell.contenders = n;
        cell.cw_min = w;
        cell.stages = m;
        cell.seed = util::derive_seed(spec.seed, index);
        cells.push_back(cell);
        ++index;
      }
    }
  }
  return cells;
}

bool CellValidationCellResult::passed() const {
  for (const CellValidationCheck& c : checks) {
    if (!c.ok) return false;
  }
  return true;
}

CellValidationCellResult run_cell_validation_cell(
    const CellValidationSpec& spec, const CellValidationCell& cell) {
  CellValidationCellResult r;
  r.cell = cell;
  const std::vector<wifi::DcfClass> classes = cell_classes(spec, cell);
  r.model = wifi::solve_dcf_classes(classes);
  r.sim = wifi::simulate_dcf_classes(classes, spec.slots, spec.warmup,
                                     cell.seed);

  const double slots = static_cast<double>(spec.slots);
  const char* labels[] = {"video", "bg"};
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const double stations = classes[c].stations;
    // tau_c: one Bernoulli trial per station per slot.
    add_check(r, spec, fmt("tau[%s]", labels[c]),
              r.sim.attempt_probability[c], r.model.attempt_probability[c],
              proportion_se(r.model.attempt_probability[c],
                            stations * slots));
    // p_c: conditioned on the class's measured transmissions.
    add_check(r, spec, fmt("p[%s]", labels[c]),
              r.sim.collision_probability[c],
              r.model.collision_probability[c],
              proportion_se(r.model.collision_probability[c],
                            static_cast<double>(r.sim.transmissions[c])));
  }
  // Cell-wide success fraction: one trial per slot.
  add_check(r, spec, "success",
            static_cast<double>(r.sim.success_slots) / slots,
            r.model.success_prob,
            proportion_se(r.model.success_prob, slots));
  return r;
}

void CellValidationTableSink::begin(const CellValidationSpec& spec) {
  out_ << "cell   n   W    m   ";
  out_ << "tau_sim    tau_fp     p_sim      p_fp       succ_sim   succ_fp    "
          "checks\n";
  (void)spec;
}

void CellValidationTableSink::cell(const CellValidationCellResult& r) {
  std::size_t failed = 0;
  for (const CellValidationCheck& c : r.checks) {
    if (!c.ok) ++failed;
  }
  out_ << fmt("%4zu %3d %4d %4d   %.7f  %.7f  %.7f  %.7f  %.7f  %.7f  ",
              r.cell.index, r.cell.contenders, r.cell.cw_min, r.cell.stages,
              r.sim.attempt_probability[0], r.model.attempt_probability[0],
              r.sim.collision_probability[0],
              r.model.collision_probability[0],
              static_cast<double>(r.sim.success_slots) /
                  static_cast<double>(r.sim.slots),
              r.model.success_prob);
  if (failed == 0) {
    out_ << fmt("%zu/%zu ok\n", r.checks.size(), r.checks.size());
  } else {
    out_ << fmt("%zu FAILED:", failed);
    for (const CellValidationCheck& c : r.checks) {
      if (c.ok) continue;
      out_ << fmt(" %s(|%.5f-%.5f|>%.5f)", c.name.c_str(), c.simulated,
                  c.analytic, c.tolerance);
    }
    out_ << "\n";
  }
}

void CellValidationJsonlSink::cell(const CellValidationCellResult& r) {
  out_ << "{\"cell\":" << r.cell.index << ",\"n\":" << r.cell.contenders
       << ",\"cw_min\":" << r.cell.cw_min << ",\"stages\":" << r.cell.stages
       << ",\"seed\":" << r.cell.seed
       << ",\"passed\":" << (r.passed() ? "true" : "false")
       << fmt(",\"iterations\":%d", r.model.iterations) << ",\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const CellValidationCheck& c = r.checks[i];
    if (i > 0) out_ << ",";
    out_ << fmt("{\"name\":\"%s\",\"simulated\":%.17g,\"analytic\":%.17g,"
                "\"tolerance\":%.17g,\"ok\":%s}",
                c.name.c_str(), c.simulated, c.analytic, c.tolerance,
                c.ok ? "true" : "false");
  }
  out_ << "]}\n";
}

CellValidationSummary CellValidationRunner::run(const CellValidationSpec& spec,
                                                CellValidationSink& sink) {
  spec.validate();
  const std::vector<CellValidationCell> cells =
      enumerate_validation_cells(spec);

  CellValidationSummary summary;
  summary.cells = cells.size();
  summary.threads = pool_ != nullptr ? pool_->thread_count() : 1;

  summary.wall_s = util::stream_results(
      pool_, cells.size(), spec, sink,
      [&](std::size_t index) {
        return run_cell_validation_cell(spec, cells[index]);
      },
      [&](const CellValidationCellResult& result) {
        if (result.passed()) ++summary.passed_cells;
        for (const CellValidationCheck& c : result.checks) {
          if (!c.ok) ++summary.failed_checks;
        }
      });
  return summary;
}

}  // namespace tv::cell
