// ScenarioMatrix: sweep scenario programs x the scheduler registry in one
// campaign and report which of the paper's guarantees survive where.
//
// A ScenarioSpec pairs an availability program (compiled once, decomposed
// once into the equivalent reservation set) with a workload source: the
// parametric generators, the daily arrival cycle, a fixed blocking workload
// (the FCFS worst case below), or a pre-parsed trace (scenario/swf_reader).
// run_scenario_matrix runs one guarantee-checking run_campaign per scenario
// and derives a verdict per (scenario, scheduler) cell:
//
//   held           every scheduled instance proved its bound
//   VIOLATED       some schedule exceeded a bound with an exact reference
//   out-of-domain  the scheduler rejected every instance (DomainError)
//   inconclusive   anything else: lower-bound checks that neither prove
//                  nor falsify, or instance classes with no finite
//                  guarantee at all (Theorem 1)
//
// Determinism: scenario campaigns run one after another, each internally
// parallel with run_campaign's bit-reproducibility contract, and the
// per-scenario seeds are forked sequentially up front -- so the whole
// matrix is a pure function of (specs, config), never of the thread count.
//
// The same compiled program also feeds the resident service harness:
// scenario_windows() turns its unavailability rectangles into
// ServiceConfig::availability, and run_scenario_service_step runs one
// fixed-rate step under the scenario's curve.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "scenario/swf_reader.hpp"
#include "sim/campaign.hpp"
#include "sim/service_sim.hpp"
#include "util/rational.hpp"
#include "util/table.hpp"

namespace resched {

enum class ScenarioWorkload {
  kRandom,      // random_workload with the spec's shape parameters
  kDailyCycle,  // daily_cycle_workload (release times follow the diurnal curve)
  kBlocking,    // blocking_workload(m, pairs, long_p) -- deterministic
  kTrace,       // the spec's fixed trace_jobs (e.g. from an SWF file)
};

// Alternating narrow-long / full-width jobs, all released at 0, ids
// interleaved (n1 w1 n2 w2 ...): `pairs` jobs of (q=1, p=long_p) and
// `pairs` of (q=m, p=1). A non-overtaking scheduler (fcfs) serializes every
// pair -- makespan pairs*(long_p+1) -- while the optimum packs all narrows
// in parallel: pairs + long_p. The ratio approaches 2 + long_p for many
// pairs, sailing past Graham's 2 - 1/m: the survival report's built-in
// guarantee-violation witness (list-scheduling bounds do not survive
// queue-order scheduling).
[[nodiscard]] std::vector<Job> blocking_workload(ProcCount m,
                                                 std::size_t pairs,
                                                 Time long_p);

struct ScenarioSpec {
  // Row label; defaults to program.name when empty.
  std::string name;
  // The availability program; its compiled curve becomes the reservation
  // set every instance of this scenario carries.
  ScenarioProgram program;
  // Reference curve for the program's wait_to_cross steps (compiled
  // without a reference itself).
  std::optional<ScenarioProgram> reference;

  ScenarioWorkload workload = ScenarioWorkload::kRandom;
  ProcCount m = 32;
  // kRandom / kDailyCycle shape parameters.
  std::size_t n = 32;
  Time p_min = 1;
  Time p_max = 60;
  Rational alpha{1, 2};
  // kRandom only: 0 = offline (no release times).
  double mean_interarrival = 0.0;
  // kBlocking parameters.
  std::size_t blocking_pairs = 4;
  Time blocking_long_p = 4;
  // kTrace: the fixed job list (every instance identical).
  std::vector<Job> trace_jobs;
};

struct ScenarioMatrixConfig {
  std::size_t instances = 8;
  std::uint64_t seed = 1;
  std::size_t threads = 0;  // forwarded to each run_campaign
  // Empty = the full registry (resolved once; fixes the column order).
  std::vector<std::string> schedulers;
  // Instances up to this size get exact B&B references (see CampaignConfig).
  std::size_t guarantee_exact_n = 9;
  Time tau = 10;
  bool validate = true;
};

enum class CellVerdict { kHeld, kViolated, kOutOfDomain, kInconclusive };

[[nodiscard]] std::string to_string(CellVerdict verdict);

struct ScenarioCell {
  std::string scenario;
  CampaignCell campaign;  // metrics + guarantee tallies for this cell
  CellVerdict verdict = CellVerdict::kInconclusive;
};

struct ScenarioMatrixResult {
  std::vector<std::string> scenarios;   // row labels, spec order
  std::vector<std::string> schedulers;  // column labels, resolved order
  // Row-major: cells[row * schedulers.size() + col].
  std::vector<ScenarioCell> cells;
  std::size_t instances = 0;

  [[nodiscard]] const ScenarioCell& cell(std::size_t row,
                                         std::size_t col) const;
  // scenario x scheduler grid of verdicts.
  [[nodiscard]] Table survival_table() const;
  // Long form, one line per cell: scenario,scheduler,verdict,scheduled,
  // skipped,proven,violated,inconclusive,none,cmax.mean
  [[nodiscard]] std::string to_csv() const;
};

[[nodiscard]] ScenarioMatrixResult run_scenario_matrix(
    const std::vector<ScenarioSpec>& specs, const ScenarioMatrixConfig& config);

// The six committed scenario programs x stock workloads over an
// m-processor machine (tests/data/*.scn serialize exactly these programs).
[[nodiscard]] std::vector<ScenarioSpec> stock_scenarios(ProcCount m);

// A parsed SWF trace as a fixed-workload scenario row: whole machine
// (soak program over trace.max_procs), every instance the identical
// trace_jobs list. Requires a non-empty trace. tests/data/pwa_sample.swf
// is the committed sample row.
[[nodiscard]] ScenarioSpec trace_scenario(const SwfTrace& trace,
                                          std::string name = "trace");

// The stock matrix plus the trace row; the trace's own machine size wins
// for that row, so the matrix mixes machine widths on purpose.
[[nodiscard]] std::vector<ScenarioSpec> stock_scenarios(ProcCount m,
                                                        const SwfTrace& trace);

// A compiled availability program as service-harness windows: one
// AvailabilityWindow per unavailability rectangle.
[[nodiscard]] std::vector<AvailabilityWindow> scenario_windows(
    const CompiledScenario& compiled, ProcCount m);

// One fixed-rate resident-service step under the scenario's availability
// curve: compiles the program (against the compiled reference, when given),
// installs the windows into `config`, and runs run_service_step.
[[nodiscard]] ServiceStepResult run_scenario_service_step(
    const Scheduler& scheduler, const ScenarioProgram& program,
    const std::optional<ScenarioProgram>& reference, const LoadGenConfig& load,
    std::uint64_t seed, double rate, ServiceConfig config);

}  // namespace resched
