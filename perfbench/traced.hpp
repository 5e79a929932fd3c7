// Traced re-compositions of the commands the workloads run.
//
// Each function calls the same public layer functions, in the same order
// and with the same seeds, as the library runner it mirrors
// (core::build_workload, core::SweepRunner::run + core::run_experiment,
// cell::CellRunner::run + cell::run_cell, analysis::LeakageRunner::run),
// with a Scope around every layer call.  The harness checks that their
// result streams equal the untraced runners' byte for byte, so the spans
// time exactly the work the real commands do.
#pragma once

#include <ostream>
#include <vector>

#include "analysis/sweep.hpp"
#include "cell/cell.hpp"
#include "core/sweep.hpp"
#include "tracer.hpp"

namespace tv::util {
class ThreadPool;
}

namespace perfbench {

/// core::build_workload with render, encode, packetize, characterize and
/// fit spans.
[[nodiscard]] tv::core::Workload build_workload_traced(
    Tracer& tracer, tv::video::MotionLevel motion, int gop_size, int frames,
    std::uint64_t seed, double fps);

/// SweepRunner::run over prebuilt workloads (one per motion level of the
/// spec, in spec.motions order), streaming JSONL to `out`.
[[nodiscard]] std::vector<tv::core::CellResult> sweep_traced(
    Tracer& tracer, const tv::core::SweepSpec& spec,
    const std::vector<const tv::core::Workload*>& workloads,
    tv::util::ThreadPool& pool, std::ostream& out);

/// CellRunner::run over one prebuilt workload (the spec must have a
/// single motion level and GOP size), streaming JSONL to `out`.
[[nodiscard]] std::vector<tv::cell::CapacityPoint> capacity_traced(
    Tracer& tracer, const tv::cell::CapacitySpec& spec,
    const tv::core::Workload& workload, tv::util::ThreadPool& pool,
    std::ostream& out);

/// LeakageRunner::run (including its workload build), streaming JSONL to
/// `out`.
[[nodiscard]] std::vector<tv::analysis::LeakageCellResult> leakage_traced(
    Tracer& tracer, const tv::analysis::LeakageSpec& spec,
    tv::util::ThreadPool& pool, std::ostream& out);

}  // namespace perfbench
