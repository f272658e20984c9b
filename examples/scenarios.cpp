// Scenario x scheduler survival matrix driver.
//
// Sweeps availability scenario programs against the scheduler registry and
// reports which of the paper's guarantees survive which scenario: every
// (scenario, scheduler) cell runs a guarantee-checking campaign and is
// classified held / VIOLATED / out-of-domain / inconclusive.
//
//   # the six stock scenarios x the full registry
//   ./build/examples/scenarios
//
//   # two cells, CSV export (the CI smoke invocation), as one command:
//   ./build/examples/scenarios --m=16 --instances=2
//       --schedulers=fcfs,lsrc --scenarios=soak,ramp --csv=matrix.csv
//
//   # committed .scn programs and a real SWF trace as extra rows, as one
//   # command:
//   ./build/examples/scenarios --scn=tests/data/maintenance.scn
//       --trace=tests/data/tiny.swf
#include <fstream>
#include <iostream>

#include "resched.hpp"

namespace {

using namespace resched;

[[nodiscard]] bool selected(const std::string& name,
                            const std::vector<std::string>& filter) {
  if (filter.empty()) return true;
  for (const std::string& want : filter)
    if (want == name) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resched;
  CliParser cli("scenarios",
                "scenario x scheduler guarantee-survival matrix");
  cli.add_option("m", "processors for the stock scenarios", "32");
  cli.add_option("instances", "instances per matrix cell", "8");
  cli.add_option("seed", "master seed", "1");
  cli.add_option("threads", "worker threads per campaign (0 = all cores)",
                 "0");
  cli.add_option("schedulers",
                 "comma-separated scheduler names (empty = full registry)",
                 "");
  cli.add_option("scenarios",
                 "comma-separated stock-scenario names to keep (empty = all "
                 "six)",
                 "");
  cli.add_option("scn",
                 "comma-separated .scn files to add as extra scenarios "
                 "(random workload)",
                 "");
  cli.add_option("trace",
                 "SWF trace file to add as a fixed-workload scenario", "");
  cli.add_option("csv", "write the long-form per-cell report here", "");
  if (!cli.parse(argc, argv)) return 0;

  try {
    const ProcCount m = cli.get_int("m");
    const std::string scenario_filter = cli.get_string("scenarios");
    const std::vector<std::string> keep =
        scenario_filter.empty() ? std::vector<std::string>{}
                                : split(scenario_filter, ',');

    std::vector<ScenarioSpec> specs;
    for (ScenarioSpec& spec : stock_scenarios(m))
      if (selected(spec.program.name, keep)) specs.push_back(std::move(spec));

    const std::string scn_files = cli.get_string("scn");
    if (!scn_files.empty()) {
      for (const std::string& path : split(scn_files, ',')) {
        ScenarioSpec spec;
        spec.program = load_scn(path);
        spec.m = m;
        specs.push_back(std::move(spec));
      }
    }

    const std::string trace_path = cli.get_string("trace");
    if (!trace_path.empty()) {
      const SwfTrace trace = load_swf_trace(trace_path);
      RESCHED_REQUIRE_MSG(trace.parsed > 0,
                          "trace has no schedulable job records");
      std::cout << "trace " << trace_path << ": " << trace.skip_summary()
                << "\n";
      specs.push_back(trace_scenario(trace));
    }
    RESCHED_REQUIRE_MSG(!specs.empty(), "no scenarios selected");

    ScenarioMatrixConfig config;
    config.instances = static_cast<std::size_t>(cli.get_int("instances"));
    config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    config.threads = static_cast<std::size_t>(cli.get_int("threads"));
    const std::string schedulers = cli.get_string("schedulers");
    if (!schedulers.empty()) config.schedulers = split(schedulers, ',');

    const ScenarioMatrixResult result = run_scenario_matrix(specs, config);
    std::cout << "scenario matrix: " << result.scenarios.size()
              << " scenarios x " << result.schedulers.size()
              << " schedulers, " << result.instances
              << " instances per cell, seed " << config.seed << "\n\n";
    result.survival_table().print(std::cout);

    // Guarantee tallies for the interesting (non-held) cells.
    for (std::size_t row = 0; row < result.scenarios.size(); ++row) {
      for (std::size_t col = 0; col < result.schedulers.size(); ++col) {
        const ScenarioCell& cell = result.cell(row, col);
        if (cell.verdict == CellVerdict::kHeld) continue;
        std::cout << cell.scenario << " x " << cell.campaign.scheduler << ": "
                  << to_string(cell.verdict) << " (proven "
                  << cell.campaign.guarantee_proven << ", violated "
                  << cell.campaign.guarantee_violated << ", inconclusive "
                  << cell.campaign.guarantee_inconclusive << ", no-guarantee "
                  << cell.campaign.guarantee_none << ", skipped "
                  << cell.campaign.skipped << ")\n";
      }
    }

    const std::string csv_path = cli.get_string("csv");
    if (!csv_path.empty()) {
      std::ofstream os(csv_path);
      RESCHED_REQUIRE_MSG(os.good(), "cannot write: " + csv_path);
      os << result.to_csv();
      std::cout << "\nper-cell CSV written to " << csv_path << "\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
