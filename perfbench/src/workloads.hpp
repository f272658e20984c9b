// The benchmark's four workloads and the measurement protocol they share.
//
// A workload is a list of sub-inputs generated from the seed (service:
// step seeds; batch: instances; matrix: the one scenario matrix). Each
// run: set-up (repeated, median reported as setup_s), one untimed warm-up
// pass, then complete cycles over the sub-inputs for about the requested
// number of seconds. The first pass of each sub-input is checked in full
// and becomes its reference; later passes must reproduce it exactly.
//
//  * Untraced run: timed passes only; reports the end-to-end metrics.
//  * Traced run: over the first half of the sub-inputs, each runs
//    untraced and then traced -- through TimedScheduler, with spans and
//    profile counters on. The traced passes give the per-layer metrics;
//    each pair gives one tracing-overhead sample.
//
// perfbench/README.md defines every metric and names the end-to-end
// metric each per-layer metric is predicted to move.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // SWF trace the matrix workload parses in set-up.
  std::string swf_path = "perfbench/data/pwa_sample.swf";
  // Span dump of the traced run; empty = not written.
  std::string trace_out;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // First few failure messages (the count is in `failed`).
  std::vector<std::string> failures;
  // End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, Metric> metrics;
  // Mechanism checks and span summary of the traced run, one line each.
  std::vector<std::string> notes;
  // Results that must not depend on timing: the determinism test compares
  // these across runs with one seed.
  std::map<std::string, double> deterministic;

  [[nodiscard]] bool correct() const noexcept { return failed == 0; }
};

[[nodiscard]] const std::vector<std::string>& workload_names();

// Runs one workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

// "nproc=.. loadavg=.. build=.. compiler=.." for every result.
[[nodiscard]] std::string host_stamp();

}  // namespace perfbench
