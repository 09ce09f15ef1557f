// perfbench: the repository's benchmark binary.
//
//   perfbench --workload lookup|analytic|write-mix --seed N
//             --seconds S --trace 0|1 [--git-sha SHA] [--spans-out PATH]
//
// Prints an environment line, a details line and, last, the result line
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Failed checks are listed on
// stderr. See README.md next to this file.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "inputs.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  // JSON has no infinity; a failed request makes a latency "infinite".
  if (!std::isfinite(value)) value = std::numeric_limits<double>::max();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

int Usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload lookup|analytic|write-mix"
               " --seed N --seconds S --trace 0|1 [--git-sha SHA]"
               " [--spans-out PATH]\n";
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string workload_name;
  std::string git_sha = "unknown";
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--spans-out") {
      config.spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  const auto workload = ParseWorkload(workload_name);
  if (!workload) return Usage("unknown --workload");
  if (!have_seed) return Usage("--seed is required");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");
  config.workload = *workload;

  RunResult result = RunWorkload(config);

  std::string env = "{\"env\": {\"git_sha\": " + JsonString(git_sha) +
                    ", \"compiler\": " + JsonString(PERFBENCH_CXX_ID) +
                    ", \"cxx_flags\": " + JsonString(PERFBENCH_CXX_FLAGS) +
                    ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                    ", \"nproc\": " +
                    std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                    ", \"seconds\": " + Number(config.seconds) +
                    ", \"trace\": " + (config.trace ? "1" : "0");
  for (const auto& [key, value] : result.env) {
    env += ", " + JsonString(key) + ": " + JsonString(value);
  }
  std::cout << env << "}}\n";
  std::cout << "{\"details\": " << MetricsJson(result.details) << "}\n";

  for (std::size_t i = 0; i < result.problems.size() && i < 20; ++i) {
    std::cerr << "check failed: " << result.problems[i] << "\n";
  }
  const bool correct = result.problems.empty() && result.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << MetricsJson(result.metrics) << "}"
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
