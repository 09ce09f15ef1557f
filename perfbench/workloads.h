// The three perfbench workloads: set-up, the measured window, the
// correctness checks and (with tracing) the per-layer replay.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

struct RunConfig {
  Workload workload = Workload::kLookup;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Descriptions of failed checks; empty means correct.
  std::vector<std::string> problems;
  /// The metrics of the result line: end-to-end (untraced) or per-layer
  /// (traced).
  std::vector<Metric> metrics;
  /// Workload-specific figures printed before the result line.
  std::vector<Metric> details;
  /// Environment facts (printed in the env block).
  std::vector<std::pair<std::string, std::string>> env;
};

RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
