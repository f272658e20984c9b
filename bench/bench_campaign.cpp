// Experiment E9c -- campaign throughput across thread counts.
//
// run_campaign fans seeded instances across schedulers on a thread pool;
// this bench pins down the scaling of that fan-out (same aggregated table
// for every thread count -- the determinism test asserts it, this measures
// what the parallelism buys).
#include "bench_util.hpp"

#include "algorithms/scheduler.hpp"
#include "core/arena.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"
#include "sim/campaign.hpp"

namespace {

using namespace resched;

Instance sweep_instance(std::uint64_t seed) {
  WorkloadConfig workload;
  workload.n = 300;
  workload.m = 64;
  workload.alpha = Rational(1, 2);
  Instance instance = random_workload(workload, seed);
  AlphaReservationConfig resa;
  resa.alpha = Rational(1, 2);
  resa.count = 10;
  resa.horizon = 2000;
  resa.max_duration = 200;
  return with_alpha_restricted_reservations(instance, resa,
                                            seed ^ 0x9e3779b97f4a7c15ull);
}

void print_tables() {
  benchutil::print_header(
      "Campaign throughput (E9c)",
      "run_campaign over 16 reserved instances x 4 schedulers; "
      "Arg = worker threads.");
}

void BM_Campaign(benchmark::State& state) {
  CampaignConfig config;
  config.instances = 16;
  config.seed = 7;
  config.threads = static_cast<std::size_t>(state.range(0));
  config.schedulers = {"lsrc", "conservative", "easy", "fcfs"};
  const InstanceGenerator generator = [](std::size_t, std::uint64_t seed) {
    return sweep_instance(seed);
  };
  for (auto _ : state) {
    const CampaignResult result = run_campaign(generator, config);
    benchmark::DoNotOptimize(result.cells.front().makespan.mean());
  }
  state.counters["schedules/s"] = benchmark::Counter(
      static_cast<double>(config.instances * config.schedulers.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Campaign)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Batch-path allocation cost: one schedule() call over the standard
// campaign instance (n = 300, m = 64, 10 reservations), heap events
// counted by the global alloc hook. The campaign fan-out above is
// thread-pooled (the thread-local counter cannot see the workers), so the
// per-schedule figure is measured here on the calling thread.
void BM_ScheduleAllocs(benchmark::State& state, const char* name) {
  const auto scheduler = make_scheduler(name);
  const Instance instance = sweep_instance(7);
  std::uint64_t allocs = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    const std::uint64_t allocs_begin = alloc_count();
    const ScheduleOutcome outcome = scheduler->schedule(instance);
    allocs += alloc_count() - allocs_begin;
    ++runs;
    benchmark::DoNotOptimize(outcome.ok());
  }
  state.counters["allocs_per_schedule"] =
      runs > 0 ? static_cast<double>(allocs) / static_cast<double>(runs)
               : 0.0;
}
BENCHMARK_CAPTURE(BM_ScheduleAllocs, easy, "easy");
BENCHMARK_CAPTURE(BM_ScheduleAllocs, conservative, "conservative");
BENCHMARK_CAPTURE(BM_ScheduleAllocs, fcfs, "fcfs");

Instance tail_instance(std::uint64_t seed) {
  WorkloadConfig workload;
  workload.n = 120;
  workload.m = 48;
  workload.alpha = Rational(1, 2);
  return random_workload(workload, seed);
}

void BM_CampaignTail(benchmark::State& state) {
  // Tail-latency case: local-search is orders of magnitude slower than the
  // constructive schedulers. With per-instance tasks one worker would drag
  // a whole instance's scheduler set; per-(instance, scheduler) tasks let
  // the cheap schedulers drain around the slow ones, so the critical path
  // is a single local-search run instead of a pile-up.
  CampaignConfig config;
  config.instances = 6;
  config.seed = 11;
  config.threads = static_cast<std::size_t>(state.range(0));
  config.schedulers = {"local-search", "fcfs", "conservative", "easy"};
  const InstanceGenerator generator = [](std::size_t, std::uint64_t seed) {
    return tail_instance(seed);
  };
  for (auto _ : state) {
    const CampaignResult result = run_campaign(generator, config);
    benchmark::DoNotOptimize(result.cells.front().makespan.mean());
  }
  state.counters["schedules/s"] = benchmark::Counter(
      static_cast<double>(config.instances * config.schedulers.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CampaignTail)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

RESCHED_BENCH_MAIN(print_tables, "BENCH_campaign.json")
