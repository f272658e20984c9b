// Campaign runner: regenerate the paper's figure data as CSV, or sweep all
// schedulers over seeded random instances in parallel.
//
// A thin driver over the library:
//
//   ./build/examples/campaign --experiment=fig3 > fig3.csv
//   ./build/examples/campaign --experiment=fig4 --step=0.01 > fig4.csv
//   ./build/examples/campaign --experiment=alpha --seeds=20 > alpha.csv
//   ./build/examples/campaign --experiment=sweep --instances=64 --threads=8
//
// The sweep experiment is powered by sim/campaign.hpp's run_campaign: same
// seed means the same aggregated table for any --threads value.
//
// Also doubles as an instance exporter: --dump-instances writes every
// generated instance in SWF form next to the CSV.
#include <fstream>
#include <iostream>

#include "algorithms/lsrc.hpp"
#include "algorithms/scheduler.hpp"
#include "bounds/guarantees.hpp"
#include "bounds/lower_bounds.hpp"
#include "core/io.hpp"
#include "generators/adversarial.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"
#include "scenario/matrix.hpp"
#include "sim/campaign.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

using namespace resched;

int run_fig3(bool dump) {
  std::cout << "k,alpha,m,opt,lsrc_bad,ratio,predicted,lpt\n";
  for (std::int64_t k = 2; k <= 14; ++k) {
    const Prop2Family family = prop2_instance(k);
    const Schedule bad =
        LsrcScheduler(family.bad_order).schedule(family.instance).value();
    const Schedule lpt =
        LsrcScheduler(ListOrder::kLpt).schedule(family.instance).value();
    std::cout << k << ',' << Rational(2, k).to_double() << ','
              << family.instance.m() << ',' << family.optimal_makespan << ','
              << bad.makespan(family.instance) << ','
              << makespan_ratio(bad.makespan(family.instance),
                                family.optimal_makespan)
                     .to_double()
              << ',' << prop2_ratio_for_k(k).to_double() << ','
              << lpt.makespan(family.instance) << "\n";
    if (dump) {
      std::ofstream os("prop2_k" + std::to_string(k) + ".swf");
      write_swf(family.instance, os);
    }
  }
  return 0;
}

int run_fig4(double step) {
  std::cout << "alpha,b2,b1,upper\n";
  for (double a = step; a <= 1.0 + 1e-9; a += step) {
    // Exact rational grid point (denominator 10000 keeps int64 safe).
    const Rational alpha(static_cast<std::int64_t>(a * 10000 + 0.5), 10000);
    if (alpha <= Rational(0) || alpha > Rational(1)) continue;
    std::cout << alpha.to_double() << ','
              << lsrc_lower_bound_b2(alpha).to_double() << ','
              << lsrc_lower_bound_b1(alpha).to_double() << ','
              << alpha_upper_bound(alpha).to_double() << "\n";
  }
  return 0;
}

int run_alpha(std::uint64_t seeds, bool dump) {
  std::cout << "alpha,algorithm,seed,makespan,lower_bound,ratio\n";
  for (const auto& [num, den] : std::vector<std::pair<int, int>>{
           {1, 8}, {1, 4}, {1, 2}, {3, 4}, {1, 1}}) {
    const Rational alpha(num, den);
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      WorkloadConfig config;
      config.n = 80;
      config.m = 32;
      config.alpha = alpha;
      const Instance base = random_workload(config, seed * 7919);
      AlphaReservationConfig resa;
      resa.alpha = alpha;
      const Instance instance =
          with_alpha_restricted_reservations(base, resa, seed);
      const Time lb = makespan_lower_bound(instance);
      if (dump && seed == 1) {
        std::ofstream os("alpha_" + std::to_string(num) + "_" +
                         std::to_string(den) + ".swf");
        write_swf(instance, os);
      }
      for (const char* name : {"lsrc", "lsrc-lpt", "fcfs", "conservative",
                               "easy"}) {
        const Time cmax =
            make_scheduler(name)->schedule(instance).value().makespan(instance);
        std::cout << alpha.to_double() << ',' << name << ',' << seed << ','
                  << cmax << ',' << lb << ','
                  << static_cast<double>(cmax) / static_cast<double>(lb)
                  << "\n";
      }
    }
  }
  return 0;
}

int run_sweep(const CliParser& cli) {
  CampaignConfig config;
  config.instances = static_cast<std::size_t>(cli.get_int("instances"));
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.threads = static_cast<std::size_t>(cli.get_int("threads"));
  const std::string schedulers = cli.get_string("schedulers");
  if (!schedulers.empty()) config.schedulers = split(schedulers, ',');

  const std::size_t n = static_cast<std::size_t>(cli.get_int("n"));
  const ProcCount m = cli.get_int("m");
  const std::int64_t reservations = cli.get_int("reservations");
  const InstanceGenerator generator =
      [n, m, reservations](std::size_t, std::uint64_t seed) {
        WorkloadConfig workload;
        workload.n = n;
        workload.m = m;
        workload.alpha = Rational(1, 2);
        Instance instance = random_workload(workload, seed);
        if (reservations > 0) {
          AlphaReservationConfig resa;
          resa.alpha = Rational(1, 2);
          resa.count = static_cast<std::size_t>(reservations);
          resa.horizon = 2000;
          resa.max_duration = 200;
          instance = with_alpha_restricted_reservations(
              instance, resa, seed ^ 0x9e3779b97f4a7c15ull);
        }
        return instance;
      };

  const CampaignResult result = run_campaign(generator, config);
  std::cout << "campaign: " << result.instances << " instances, seed "
            << config.seed << "\n\n";
  result.to_table().print(std::cout);
  // Typed skip reasons (DomainError), not just a bare count.
  for (const CampaignCell& cell : result.cells)
    if (cell.skipped > 0)
      std::cout << "skips[" << cell.scheduler << "]: " << cell.skip_reasons()
                << "\n";
  return 0;
}

// The scenario x scheduler survival matrix (scenario/matrix.hpp), through
// the same campaign engine. See examples/scenarios.cpp for the full driver
// (scenario selection, .scn / SWF loading, CSV export).
int run_scenarios(const CliParser& cli) {
  ScenarioMatrixConfig config;
  config.instances = static_cast<std::size_t>(cli.get_int("instances"));
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.threads = static_cast<std::size_t>(cli.get_int("threads"));
  const std::string schedulers = cli.get_string("schedulers");
  if (!schedulers.empty()) config.schedulers = split(schedulers, ',');

  const ScenarioMatrixResult result =
      run_scenario_matrix(stock_scenarios(cli.get_int("m")), config);
  std::cout << "scenario matrix: " << result.scenarios.size()
            << " scenarios x " << result.schedulers.size() << " schedulers, "
            << result.instances << " instances per cell, seed " << config.seed
            << "\n\n";
  result.survival_table().print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resched;
  CliParser cli("campaign", "CSV sweep runner for the paper's figures");
  cli.add_option("experiment", "one of: fig3, fig4, alpha, sweep, scenarios",
                 "fig3");
  cli.add_option("step", "alpha grid step for fig4", "0.05");
  cli.add_option("seeds", "seeds per cell for the alpha sweep", "10");
  cli.add_option("instances", "sweep: number of generated instances", "32");
  cli.add_option("seed", "sweep: master seed", "1");
  cli.add_option("threads", "sweep: worker threads (0 = all cores)", "0");
  cli.add_option("schedulers",
                 "sweep: comma-separated scheduler names (empty = all)", "");
  cli.add_option("n", "sweep: jobs per instance", "120");
  cli.add_option("m", "sweep: processors", "64");
  cli.add_option("reservations", "sweep: reservations per instance", "8");
  cli.add_flag("dump-instances", "also write generated instances as SWF");
  if (!cli.parse(argc, argv)) return 0;

  const std::string experiment = cli.get_string("experiment");
  const bool dump = cli.get_flag("dump-instances");
  if (experiment == "fig3") return run_fig3(dump);
  if (experiment == "fig4") return run_fig4(cli.get_double("step"));
  if (experiment == "alpha")
    return run_alpha(static_cast<std::uint64_t>(cli.get_int("seeds")), dump);
  if (experiment == "sweep") return run_sweep(cli);
  if (experiment == "scenarios") return run_scenarios(cli);
  std::cerr << "unknown experiment '" << experiment << "'\n" << cli.usage();
  return 1;
}
