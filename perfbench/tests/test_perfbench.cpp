// Self-test of the benchmark's own code: the TimedScheduler wrapper is
// transparent, and a run is a deterministic function of its seed.
//
//   perfbench_test            (built next to perfbench; exit 0 = pass)
//   python3 perfbench/run.py --selftest
//
// Transparency: with record_wall_latency off a service step's whole result
// is deterministic, so the wrapped and bare schedulers must produce equal
// ServiceStepResults (operator==, decisions_incremental included), equal
// batch schedules and equal matrix verdict grids -- with every probe the
// traced run uses switched on.
//
// Determinism: two traced runs with one seed give identical deterministic
// metrics (core.index_builds, sim.service.*, scenario.cells_*,
// wait_p99_ticks, cmax_ratio); another seed changes the inputs, so at
// least one of them moves.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/scheduler.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"
#include "scenario/matrix.hpp"
#include "scenario/swf_reader.hpp"
#include "sim/service_sim.hpp"
#include "timed_scheduler.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::cerr << "FAIL: " << what << '\n';
}

// The traced run's probes, all on; `replay_every` = 1 replays every call.
perfbench::ProbeOptions all_probes(perfbench::Tracer& tracer,
                                   std::uint64_t replay_every) {
  perfbench::ProbeOptions probe;
  probe.tracer = &tracer;
  probe.replay_every = replay_every;
  probe.quality = true;
  return probe;
}

void test_service_transparent() {
  resched::LoadGenConfig load;
  load.m = 256;
  load.p_max = 30;
  load.alpha = resched::Rational(1, 2);
  perfbench::Tracer tracer(1000);
  for (const double churn : {0.0, 40.0}) {
    resched::ServiceConfig config;
    config.phases = resched::ServicePhases{100, 1500, 100};
    config.dispatch_window = 64;
    config.record_wall_latency = false;
    config.churn.events_per_kilotick = churn;
    for (const char* name : {"conservative", "easy", "lsrc", "fcfs"}) {
      const auto bare = resched::make_scheduler(name);
      const perfbench::TimedScheduler wrapped(name, perfbench::call_sink());
      expect(wrapped.name() == bare->name(), "wrapped name differs");
      const resched::ServiceStepResult plain =
          resched::run_service_step(*bare, load, 11, 750.0, config);
      const std::string what = std::string(name) +
                               (churn > 0 ? " (churn)" : "") + ": ";
      // The quality probe is the matrix's (its lower bound allocates
      // inside the decision window); the service runs never enable it.
      perfbench::ProbeOptions probe = all_probes(tracer, 0);
      probe.quality = false;
      perfbench::call_sink().set_options(probe);
      const resched::ServiceStepResult timed =
          resched::run_service_step(wrapped, load, 11, 750.0, config);
      expect(timed == plain, what + "wrapped step result differs");
      expect(timed.decisions_incremental == plain.decisions_incremental,
             what + "decisions_incremental differs");
      expect(perfbench::call_sink().stats(name).calls > 0,
             what + "wrapper saw no call");
      // Replays copy profiles inside the step's decision window, which the
      // library counts as decision allocations; nothing else may move.
      probe.replay_every = 1;
      perfbench::call_sink().set_options(probe);
      resched::ServiceStepResult replayed =
          resched::run_service_step(wrapped, load, 11, 750.0, config);
      replayed.decision_allocs = plain.decision_allocs;
      expect(replayed == plain, what + "replaying step result differs");
      perfbench::call_sink().set_options(perfbench::ProbeOptions{});
      perfbench::call_sink().reset();
    }
  }
}

void test_batch_transparent() {
  resched::WorkloadConfig jobs;
  jobs.n = 3000;
  jobs.m = 64;
  jobs.alpha = resched::Rational(1, 2);
  resched::AlphaReservationConfig reservations;
  reservations.count = 300;
  reservations.horizon = 60000;
  reservations.max_duration = 200;
  const resched::Instance instance =
      resched::with_alpha_restricted_reservations(
          resched::random_workload(jobs, 5), reservations, 6);
  perfbench::Tracer tracer(1000);
  for (const char* name : {"lsrc", "conservative", "easy", "fcfs"}) {
    const auto bare = resched::make_scheduler(name);
    const perfbench::TimedScheduler wrapped(name, perfbench::call_sink());
    perfbench::call_sink().set_options(all_probes(tracer, 1));
    const resched::ScheduleOutcome timed = wrapped.schedule(instance);
    perfbench::call_sink().set_options(perfbench::ProbeOptions{});
    const resched::ScheduleOutcome plain = bare->schedule(instance);
    expect(timed.ok() && plain.ok() && timed.value() == plain.value(),
           std::string(name) + ": wrapped batch schedule differs");
    perfbench::call_sink().reset();
  }
}

void test_matrix_transparent() {
  const resched::SwfTrace trace =
      resched::load_swf_trace("perfbench/data/pwa_sample.swf");
  const std::vector<resched::ScenarioSpec> specs =
      resched::stock_scenarios(32, trace);
  resched::ScenarioMatrixConfig config;
  config.instances = 2;
  config.threads = 2;
  config.guarantee_exact_n = 9;
  std::vector<std::string> bare_names;
  const std::vector<std::string> wrapped_names =
      perfbench::register_timed_schedulers();
  for (const std::string& name : wrapped_names)
    bare_names.push_back(name.substr(perfbench::timed_name("").size()));

  config.schedulers = bare_names;
  const resched::ScenarioMatrixResult plain =
      resched::run_scenario_matrix(specs, config);
  perfbench::Tracer tracer(1000);
  perfbench::call_sink().set_options(all_probes(tracer, 1));
  config.schedulers = wrapped_names;
  const resched::ScenarioMatrixResult timed =
      resched::run_scenario_matrix(specs, config);
  perfbench::call_sink().set_options(perfbench::ProbeOptions{});
  perfbench::call_sink().reset();

  expect(plain.cells.size() == timed.cells.size(), "matrix shape differs");
  for (std::size_t c = 0; c < plain.cells.size() && c < timed.cells.size();
       ++c) {
    expect(plain.cells[c].verdict == timed.cells[c].verdict,
           "matrix verdict differs at cell " + std::to_string(c));
    expect(plain.cells[c].campaign.makespan.mean() ==
               timed.cells[c].campaign.makespan.mean(),
           "matrix makespan differs at cell " + std::to_string(c));
  }
}

void test_runs_deterministic() {
  for (const std::string& workload : perfbench::workload_names()) {
    perfbench::RunOptions options;
    options.workload = workload;
    options.seconds = 0.0;
    options.trace = true;
    options.seed = 3;
    const perfbench::RunResult first = perfbench::run_workload(options);
    const perfbench::RunResult second = perfbench::run_workload(options);
    options.seed = 4;
    const perfbench::RunResult other = perfbench::run_workload(options);
    expect(first.correct() && second.correct() && other.correct(),
           workload + ": a run failed its checks");
    expect(!first.deterministic.empty(),
           workload + ": no deterministic metrics");
    expect(first.deterministic == second.deterministic,
           workload + ": same seed, different deterministic metrics");
    expect(first.deterministic != other.deterministic,
           workload + ": another seed left every deterministic metric "
                      "unchanged");
    for (const auto& [name, value] : first.deterministic)
      std::cout << workload << ' ' << name << " = " << value << '\n';
  }
}

}  // namespace

int main() {
  try {
    test_service_transparent();
    test_batch_transparent();
    test_matrix_transparent();
    test_runs_deterministic();
  } catch (const std::exception& e) {
    std::cerr << "FAIL: exception: " << e.what() << '\n';
    return 1;
  }
  if (g_failures > 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-test passed\n";
  return 0;
}
