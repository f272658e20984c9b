#include "scenario/matrix.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "generators/workload.hpp"
#include "util/prng.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"

namespace resched {

namespace {

[[nodiscard]] std::vector<Job> scenario_jobs(const ScenarioSpec& spec,
                                             std::uint64_t seed) {
  switch (spec.workload) {
    case ScenarioWorkload::kRandom: {
      WorkloadConfig config;
      config.n = spec.n;
      config.m = spec.m;
      config.p_min = spec.p_min;
      config.p_max = spec.p_max;
      config.alpha = spec.alpha;
      config.mean_interarrival = spec.mean_interarrival;
      return random_workload(config, seed).jobs();
    }
    case ScenarioWorkload::kDailyCycle: {
      DailyCycleConfig config;
      config.n = spec.n;
      config.m = spec.m;
      config.p_min = spec.p_min;
      config.p_max = spec.p_max;
      config.alpha = spec.alpha;
      return daily_cycle_workload(config, seed).jobs();
    }
    case ScenarioWorkload::kBlocking:
      return blocking_workload(spec.m, spec.blocking_pairs,
                               spec.blocking_long_p);
    case ScenarioWorkload::kTrace:
      return spec.trace_jobs;
  }
  RESCHED_CHECK_MSG(false, "unknown scenario workload kind");
  return {};
}

}  // namespace

std::vector<Job> blocking_workload(ProcCount m, std::size_t pairs,
                                   Time long_p) {
  RESCHED_REQUIRE_MSG(m >= 1 && pairs >= 1 && long_p >= 1,
                      "blocking workload needs m, pairs, long_p >= 1");
  std::vector<Job> jobs;
  jobs.reserve(2 * pairs);
  for (std::size_t k = 0; k < pairs; ++k) {
    Job narrow;
    narrow.id = static_cast<JobId>(jobs.size());
    narrow.q = 1;
    narrow.p = long_p;
    narrow.name = tag("narrow", static_cast<std::int64_t>(k));
    jobs.push_back(std::move(narrow));
    Job wide;
    wide.id = static_cast<JobId>(jobs.size());
    wide.q = m;
    wide.p = 1;
    wide.name = tag("wide", static_cast<std::int64_t>(k));
    jobs.push_back(std::move(wide));
  }
  return jobs;
}

std::string to_string(CellVerdict verdict) {
  switch (verdict) {
    case CellVerdict::kHeld: return "held";
    case CellVerdict::kViolated: return "VIOLATED";
    case CellVerdict::kOutOfDomain: return "out-of-domain";
    case CellVerdict::kInconclusive: return "inconclusive";
  }
  return "?";
}

const ScenarioCell& ScenarioMatrixResult::cell(std::size_t row,
                                               std::size_t col) const {
  RESCHED_REQUIRE(row < scenarios.size() && col < schedulers.size());
  return cells[row * schedulers.size() + col];
}

Table ScenarioMatrixResult::survival_table() const {
  std::vector<std::string> headers{"scenario"};
  headers.insert(headers.end(), schedulers.begin(), schedulers.end());
  Table table(std::move(headers));
  for (std::size_t row = 0; row < scenarios.size(); ++row) {
    std::vector<std::string> cells_row{scenarios[row]};
    for (std::size_t col = 0; col < schedulers.size(); ++col)
      cells_row.push_back(to_string(cell(row, col).verdict));
    table.add_row(std::move(cells_row));
  }
  return table;
}

std::string ScenarioMatrixResult::to_csv() const {
  std::ostringstream out;
  out << "scenario,scheduler,verdict,scheduled,skipped,proven,violated,"
         "inconclusive,none,cmax.mean\n";
  for (std::size_t row = 0; row < scenarios.size(); ++row) {
    for (std::size_t col = 0; col < schedulers.size(); ++col) {
      const ScenarioCell& c = cell(row, col);
      char cmax[32];
      std::snprintf(cmax, sizeof(cmax), "%.6g", c.campaign.makespan.mean());
      out << c.scenario << ',' << c.campaign.scheduler << ','
          << to_string(c.verdict) << ',' << c.campaign.scheduled << ','
          << c.campaign.skipped << ',' << c.campaign.guarantee_proven << ','
          << c.campaign.guarantee_violated << ','
          << c.campaign.guarantee_inconclusive << ','
          << c.campaign.guarantee_none << ',' << cmax << '\n';
    }
  }
  return out.str();
}

ScenarioMatrixResult run_scenario_matrix(const std::vector<ScenarioSpec>& specs,
                                         const ScenarioMatrixConfig& config) {
  RESCHED_REQUIRE_MSG(!specs.empty(), "scenario matrix needs scenarios");
  const std::vector<std::string> names = config.schedulers.empty()
                                            ? registered_schedulers()
                                            : config.schedulers;
  RESCHED_REQUIRE_MSG(!names.empty(), "scenario matrix needs schedulers");

  // One seed per scenario, forked sequentially up front: each scenario's
  // campaign is a pure function of its own seed, independent of how many
  // threads ran the previous one.
  std::vector<std::uint64_t> seeds(specs.size());
  {
    Prng master(config.seed);
    for (std::uint64_t& seed : seeds) seed = master.fork_seed();
  }

  ScenarioMatrixResult out;
  out.schedulers = names;
  out.instances = config.instances;
  out.cells.reserve(specs.size() * names.size());

  for (std::size_t row = 0; row < specs.size(); ++row) {
    const ScenarioSpec& spec = specs[row];
    const std::string label =
        spec.name.empty() ? spec.program.name : spec.name;
    out.scenarios.push_back(label);

    // Compile once per scenario; every instance shares the reservation set.
    StepProfile reference_curve{0};
    const StepProfile* reference = nullptr;
    if (spec.reference.has_value()) {
      reference_curve = compile_scenario(*spec.reference).curve;
      reference = &reference_curve;
    }
    const CompiledScenario compiled = compile_scenario(spec.program, reference);
    const std::vector<Reservation> reservations =
        unavailability_to_reservations(
            scenario_unavailability(compiled, spec.m));

    CampaignConfig campaign;
    campaign.instances = config.instances;
    campaign.seed = seeds[row];
    campaign.threads = config.threads;
    campaign.schedulers = names;
    campaign.tau = config.tau;
    campaign.validate = config.validate;
    campaign.check_guarantees = true;
    campaign.guarantee_exact_n = config.guarantee_exact_n;

    const CampaignResult result = run_campaign(
        [&spec, &reservations](std::size_t, std::uint64_t seed) {
          return Instance(spec.m, scenario_jobs(spec, seed), reservations);
        },
        campaign);

    for (const CampaignCell& campaign_cell : result.cells) {
      ScenarioCell cell;
      cell.scenario = label;
      cell.campaign = campaign_cell;
      if (campaign_cell.scheduled == 0 && campaign_cell.skipped > 0) {
        cell.verdict = CellVerdict::kOutOfDomain;
      } else if (campaign_cell.guarantee_violated > 0) {
        cell.verdict = CellVerdict::kViolated;
      } else if (campaign_cell.scheduled > 0 &&
                 campaign_cell.guarantee_proven == campaign_cell.scheduled) {
        cell.verdict = CellVerdict::kHeld;
      } else {
        cell.verdict = CellVerdict::kInconclusive;
      }
      out.cells.push_back(std::move(cell));
    }
  }
  return out;
}

std::vector<ScenarioSpec> stock_scenarios(ProcCount m) {
  RESCHED_REQUIRE_MSG(m >= 4, "stock scenarios need m >= 4");
  std::vector<ScenarioSpec> specs;

  {
    // The diurnal availability program over the diurnal arrival workload:
    // the closest thing to a production day.
    ScenarioSpec spec;
    spec.program = daily_availability_program(m);
    spec.workload = ScenarioWorkload::kDailyCycle;
    spec.m = m;
    spec.n = 48;
    spec.p_max = 240;
    specs.push_back(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.program = maintenance_program(m);
    spec.m = m;
    specs.push_back(std::move(spec));
  }
  {
    // Brownout synchronizes with the intensity curve via wait_to_cross.
    ScenarioSpec spec;
    spec.program = brownout_program(m);
    spec.reference = daily_intensity_program(1440);
    spec.m = m;
    specs.push_back(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.program = flash_crowd_program(m);
    spec.m = m;
    spec.alpha = Rational{1, 4};
    specs.push_back(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.program = ramp_program(m);
    spec.m = m;
    spec.alpha = Rational{1, 4};
    specs.push_back(std::move(spec));
  }
  {
    // The control scenario: whole machine, no reservations -- which is
    // exactly where the blocking workload exposes fcfs (VIOLATED) while
    // the list schedulers keep Graham's bound (held), and where the
    // shelf algorithms are finally inside their domain.
    ScenarioSpec spec;
    spec.program = soak_program(m);
    spec.workload = ScenarioWorkload::kBlocking;
    spec.m = m;
    specs.push_back(std::move(spec));
  }
  return specs;
}

ScenarioSpec trace_scenario(const SwfTrace& trace, std::string name) {
  RESCHED_REQUIRE_MSG(!trace.jobs.empty(),
                      "trace has no schedulable job records");
  RESCHED_REQUIRE(trace.max_procs >= 1);
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.program = soak_program(trace.max_procs);
  spec.workload = ScenarioWorkload::kTrace;
  spec.m = trace.max_procs;
  spec.trace_jobs = trace.jobs;
  return spec;
}

std::vector<ScenarioSpec> stock_scenarios(ProcCount m, const SwfTrace& trace) {
  std::vector<ScenarioSpec> specs = stock_scenarios(m);
  specs.push_back(trace_scenario(trace));
  return specs;
}

std::vector<AvailabilityWindow> scenario_windows(
    const CompiledScenario& compiled, ProcCount m) {
  std::vector<AvailabilityWindow> windows;
  for (const Reservation& rectangle : unavailability_to_reservations(
           scenario_unavailability(compiled, m)))
    windows.push_back(AvailabilityWindow{
        rectangle.start, rectangle.end(), rectangle.q});
  return windows;
}

ServiceStepResult run_scenario_service_step(
    const Scheduler& scheduler, const ScenarioProgram& program,
    const std::optional<ScenarioProgram>& reference, const LoadGenConfig& load,
    std::uint64_t seed, double rate, ServiceConfig config) {
  StepProfile reference_curve{0};
  const StepProfile* reference_ptr = nullptr;
  if (reference.has_value()) {
    reference_curve = compile_scenario(*reference).curve;
    reference_ptr = &reference_curve;
  }
  const CompiledScenario compiled = compile_scenario(program, reference_ptr);
  config.availability = scenario_windows(compiled, load.m);
  return run_service_step(scheduler, load, seed, rate, config);
}

}  // namespace resched
