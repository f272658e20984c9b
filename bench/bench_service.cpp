// Saturation curves for the open-loop service harness.
//
// The table section runs a small fixed-seed rate sweep per scheduler and
// prints sustained throughput plus the saturation knee -- the per-PR
// "heavy traffic" curve the ROADMAP north star asks for. The benchmark
// section times single service steps below and above the knee, on both
// planning paths (incremental suffix repair vs per-decision scratch
// rebuild) and under churn, and exports the sustained rate, decision
// counts, decision-latency p99 (median over iterations, with quartiles)
// and the incremental-path counters (suffix length replanned, snapshots
// reused, frames rewound) so BENCH_service.json tracks harness cost,
// scheduler capacity and the incremental speedup across PRs.
#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "algorithms/scheduler.hpp"
#include "bench_util.hpp"
#include "sim/service_sim.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace {

using namespace resched;

constexpr std::uint64_t kSeed = 42;

LoadGenConfig bench_load() {
  LoadGenConfig load;
  load.m = 32;
  load.p_min = 1;
  load.p_max = 30;
  load.alpha = Rational(1, 2);
  return load;
}

ServiceConfig bench_config() {
  ServiceConfig config;
  config.phases = ServicePhases{50, 250, 50};
  config.dispatch_window = 64;
  config.bail_queue_depth = 2000;
  return config;
}

void print_tables() {
  benchutil::print_header(
      "Service saturation sweep",
      "Open-loop stepped-rate service (m = 32, phases 50/250/50, seed 42): "
      "sustained jobs/kilotick per offered rate and the saturation knee -- "
      "the first step whose queue growth diverges.");
  for (const char* name : {"easy", "conservative", "fcfs"}) {
    const auto scheduler = make_scheduler(name);
    const ServiceSweepResult sweep = run_service_sweep(
        *scheduler, bench_load(), kSeed, 100.0, 700.0, bench_config());
    Table table({"rate/kt", "done", "wait p99", "q peak", "sustained",
                 "saturated"});
    for (const ServiceStepResult& step : sweep.steps)
      table.add(format_double(step.offered_rate, 0), step.completed,
                step.wait_ticks.count() > 0
                    ? std::to_string(step.wait_ticks.percentile(0.99))
                    : std::string("-"),
                step.peak_queue_depth,
                format_double(step.sustained_rate, 1),
                step.saturated ? "yes" : "no");
    std::cout << "--- " << name << " ---\n";
    benchutil::print_table(table);
    std::cout << (sweep.has_knee()
                      ? "knee: " + format_double(sweep.knee_rate(), 0) +
                            " jobs/kilotick\n\n"
                      : std::string("knee: none up to 700 jobs/kilotick\n\n"));
  }
}

// One full service step at a fixed offered rate; counters export the
// deterministic aggregates next to the wall-clock timing. `incremental`
// selects the planning path (suffix repair on the persistent profile vs
// per-decision scratch rebuild) and `churn_rate` enables the deterministic
// churn stream.
void BM_ServiceStep(benchmark::State& state, const char* scheduler_name,
                    double rate, bool incremental, double churn_rate) {
  const auto scheduler = make_scheduler(scheduler_name);
  const LoadGenConfig load = bench_load();
  ServiceConfig config = bench_config();
  config.incremental = incremental;
  config.churn.events_per_kilotick = churn_rate;
  ServiceStepResult last;
  // The simulation is deterministic per iteration; only the wall-clock
  // decision latencies vary. Keep every iteration's p99 and export their
  // median with its quartiles: a minimum would report the luckiest
  // iteration, not the path's cost (both planning paths get identical
  // treatment).
  std::vector<double> p99s;
  for (auto _ : state) {
    last = run_service_step(*scheduler, load, kSeed, rate, config);
    benchmark::DoNotOptimize(last.completed);
    if (last.decision_ns.count() > 0)
      p99s.push_back(static_cast<double>(last.decision_ns.percentile(0.99)));
  }
  state.counters["sustained_per_kt"] = last.sustained_rate;
  state.counters["decisions"] = static_cast<double>(last.decisions);
  state.counters["decisions_incremental"] =
      static_cast<double>(last.decisions_incremental);
  state.counters["decisions_scratch"] =
      static_cast<double>(last.decisions_scratch);
  state.counters["snapshots_reused"] =
      static_cast<double>(last.snapshots_reused);
  state.counters["suffix_jobs_replanned"] =
      static_cast<double>(last.suffix_jobs_replanned);
  state.counters["plan_frames_rewound"] =
      static_cast<double>(last.plan_frames_rewound);
  state.counters["history_compactions"] =
      static_cast<double>(last.history_compactions);
  // Heap allocations per measure-window decision (global operator-new hook
  // plus the library's instrumented malloc sites). Deterministic; gated by
  // bench/alloc_budget.json in CI. Steady-state incremental paths target 0.
  state.counters["allocs_per_decision"] =
      last.decisions_measured > 0
          ? static_cast<double>(last.decision_allocs) /
                static_cast<double>(last.decisions_measured)
          : 0.0;
  state.counters["churn_events"] = static_cast<double>(last.churn_events);
  state.counters["canceled"] = static_cast<double>(last.canceled);
  state.counters["saturated"] = last.saturated ? 1.0 : 0.0;
  if (!p99s.empty()) {
    constexpr std::array<double, 3> kQuartiles{0.25, 0.5, 0.75};
    const std::vector<double> q = percentiles(std::move(p99s), kQuartiles);
    state.counters["decision_p99_ns_q1"] = q[0];
    state.counters["decision_p99_ns"] = q[1];
    state.counters["decision_p99_ns_q3"] = q[2];
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(last.completed));
}

// Whole sweep incl. knee detection; knee_rate_per_kt is the tracked curve.
void BM_ServiceKnee(benchmark::State& state, const char* scheduler_name) {
  const auto scheduler = make_scheduler(scheduler_name);
  const LoadGenConfig load = bench_load();
  const ServiceConfig config = bench_config();
  ServiceSweepResult sweep;
  for (auto _ : state) {
    sweep = run_service_sweep(*scheduler, load, kSeed, 100.0, 700.0, config);
    benchmark::DoNotOptimize(sweep.knee_index);
  }
  state.counters["knee_rate_per_kt"] =
      sweep.has_knee() ? sweep.knee_rate() : 0.0;
}

// Incremental-vs-scratch pairs: same seed, same rate, only the planning
// path differs, so the wall-clock ratio and decision_p99_ns deltas are the
// incremental speedup.
BENCHMARK_CAPTURE(BM_ServiceStep, easy_subsat, "easy", 200.0, true, 0.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceStep, easy_subsat_scratch, "easy", 200.0, false,
                  0.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceStep, easy_saturated, "easy", 700.0, true, 0.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceStep, easy_saturated_scratch, "easy", 700.0,
                  false, 0.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceStep, conservative_subsat, "conservative", 200.0,
                  true, 0.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceStep, conservative_subsat_scratch, "conservative",
                  200.0, false, 0.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceStep, conservative_saturated, "conservative",
                  700.0, true, 0.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceStep, conservative_saturated_scratch,
                  "conservative", 700.0, false, 0.0)
    ->Unit(benchmark::kMillisecond);
// Churn-heavy step: cancellations, availability drops and window moves at
// 30 events/kilotick on the incremental path.
BENCHMARK_CAPTURE(BM_ServiceStep, easy_churn, "easy", 300.0, true, 30.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceStep, conservative_churn, "conservative", 300.0,
                  true, 30.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceKnee, easy, "easy")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceKnee, conservative, "conservative")
    ->Unit(benchmark::kMillisecond);

}  // namespace

RESCHED_BENCH_MAIN(print_tables, "BENCH_service.json")
