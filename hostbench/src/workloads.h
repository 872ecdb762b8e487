// The benchmark's workloads and the two kinds of run it makes of each:
// the end-to-end run (host time, no tracing) and the traced run (layer
// spans, counters, layer probes and the model residual).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace hostbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

[[nodiscard]] std::vector<std::string> workload_names();

/// Runs one workload; throws on a team or engine failure (a crashed rank,
/// a deadlock), which leaves nothing to report.
[[nodiscard]] Outcome run_workload(const RunConfig& cfg);

} // namespace hostbench
