// The benchmark's four workloads.  Each one drives the same library entry
// point its CLI subcommand calls (core::SweepRunner, cell::CellRunner,
// live::run_load, analysis::LeakageRunner) with inputs made from the seed,
// and knows how to check its own outputs.  NOTES.md says why each
// workload was chosen and which layers it stresses.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace tv::util {
class ThreadPool;
}

namespace perfbench {

/// Pool size of every workload, and the cap on concurrently streaming
/// live sessions.  Fixed rather than taken from the host so the work a
/// run does is the same on every machine.
inline constexpr unsigned kThreads = 4;

/// What one pass of a workload produced.
struct PassResult {
  /// The command's result stream as its CLI prints it: JSONL for
  /// sweep/cell/analyze, the tally lines for `live load`.
  std::string output;
  std::uint64_t attempted = 0;  ///< transfers tried.
  std::uint64_t failed = 0;     ///< transfers that failed or were refused.
  /// One line per failed output check; empty when every check passed.
  std::vector<std::string> check_failures;
  /// Counts the results expose, reported by the traced run.
  std::map<std::string, double> counts;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the clip workload(s) the measured phase uses, through the same
  /// public builder the command uses.  Each call starts from scratch; the
  /// last build is the one the next run() reuses.
  virtual void setup() = 0;
  /// One untraced run of the command (after setup()).
  virtual PassResult run() = 0;
  /// The same set-up and run, re-composed from each layer's public
  /// functions with a span around every layer call.  Its `output` must
  /// equal run()'s byte for byte.
  virtual PassResult run_traced(Tracer& tracer) = 0;
  /// The thriftyvid subcommand and flags that do what run() does.
  [[nodiscard]] virtual std::vector<std::string> cli_args() const = 0;
};

[[nodiscard]] std::vector<std::string> workload_names();

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      tv::util::ThreadPool& pool);

}  // namespace perfbench
