// perfbench: one workload of the repository benchmark per invocation.
//
//   perfbench --workload service|service-churn|batch|matrix --seed N
//             --seconds S --trace 0|1 [--swf PATH] [--trace-out PATH]
//
// Prints the host stamp, one line per metric (name, value, unit), the
// notes of a traced run and any failed checks, then as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Exit code 0
// when the run completed (check `correct`), 2 on bad arguments or an
// exception. perfbench/run.py builds this binary and wraps it.
#include <cmath>
#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

int usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--swf PATH] [--trace-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--swf") {
        options.swf_path = value;
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload.empty()) return usage("--workload is required");

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }

  std::cout << "# host " << perfbench::host_stamp() << " workload="
            << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << '\n';
  for (const std::string& note : result.notes) std::cout << "# " << note << '\n';
  for (const std::string& failure : result.failures)
    std::cout << "# FAILED " << failure << '\n';
  std::ostringstream json;
  json << std::setprecision(17) << "{\"correct\": "
       << (result.correct() ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    std::cout << std::left << std::setw(40) << name << ' ' << std::right
              << std::setw(20) << std::fixed << std::setprecision(6)
              << metric.value << ' ' << metric.unit << '\n';
    json << (first ? "" : ", ") << '"' << json_escape(name)
         << "\": {\"value\": "
         << (std::isfinite(metric.value) ? metric.value : 0.0)
         << ", \"unit\": \"" << json_escape(metric.unit) << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
