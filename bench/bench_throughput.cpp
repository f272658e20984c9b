// Experiment E9a -- scheduler cost ("low complexity" claim of section 1.1).
//
// Wall-clock cost of every scheduler as the job count grows, on rigid and
// reserved workloads. google-benchmark's complexity fitting reports the
// empirical growth order.
#include "bench_util.hpp"

#include "algorithms/scheduler.hpp"
#include "bounds/lower_bounds.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"

namespace {

using namespace resched;

Instance workload(std::int64_t n, bool reserved) {
  WorkloadConfig config;
  config.n = static_cast<std::size_t>(n);
  config.m = 128;
  config.alpha = Rational(1, 2);
  config.p_max = 500;
  Instance instance = random_workload(config, 31337);
  if (reserved) {
    AlphaReservationConfig resa;
    resa.alpha = Rational(1, 2);
    resa.count = 12;
    resa.horizon = 2000;
    resa.max_duration = 300;
    instance = with_alpha_restricted_reservations(instance, resa, 4242);
  }
  return instance;
}

// The perfbench `batch` shape: 20000 jobs on m = 64 with 2000
// alpha-restricted reservations over a 20n-tick horizon. Its ~4k-segment
// profiles make wide windowed queries (EASY's head-window admission test
// among them) long scans.
Instance batch_workload() {
  constexpr std::size_t kJobs = 20000;
  WorkloadConfig config;
  config.n = kJobs;
  config.m = 64;
  config.alpha = Rational(1, 2);
  AlphaReservationConfig resa;
  resa.alpha = Rational(1, 2);
  resa.count = 2000;
  resa.horizon = static_cast<Time>(20 * kJobs);
  resa.max_duration = 200;
  return with_alpha_restricted_reservations(random_workload(config, 31337),
                                            resa, 4242);
}

void print_tables() {
  benchutil::print_header(
      "Scheduler throughput (engineering companion E9)",
      "Timing section below: per-schedule cost for each algorithm, "
      "n = 128..4096 jobs,\nm = 128, with and without reservations. "
      "Complexity fits printed by google-benchmark. BM_Batch: one\n"
      "20000-job, 2000-reservation instance (the perfbench batch shape).");
}

void BM_Scheduler(benchmark::State& state, const std::string& name,
                  bool reserved) {
  const Instance instance = workload(state.range(0), reserved);
  const auto scheduler = make_scheduler(name);
  for (auto _ : state) {
    const Schedule schedule = scheduler->schedule(instance).value();
    benchmark::DoNotOptimize(schedule.makespan(instance));
  }
  state.SetComplexityN(state.range(0));
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(state.range(0)), benchmark::Counter::kIsRate);
}

#define RESCHED_THROUGHPUT_BENCH(name, reserved)                          \
  BENCHMARK_CAPTURE(BM_Scheduler, name##_reserved_##reserved, #name,      \
                    reserved)                                             \
      ->RangeMultiplier(4)                                                \
      ->Range(128, 4096)                                                  \
      ->Complexity()

RESCHED_THROUGHPUT_BENCH(lsrc, false);
RESCHED_THROUGHPUT_BENCH(lsrc, true);
RESCHED_THROUGHPUT_BENCH(fcfs, false);
RESCHED_THROUGHPUT_BENCH(fcfs, true);
RESCHED_THROUGHPUT_BENCH(conservative, false);
RESCHED_THROUGHPUT_BENCH(conservative, true);
RESCHED_THROUGHPUT_BENCH(easy, false);
RESCHED_THROUGHPUT_BENCH(easy, true);

void BM_Batch(benchmark::State& state, const std::string& name) {
  static const Instance instance = batch_workload();
  const auto scheduler = make_scheduler(name);
  for (auto _ : state) {
    const Schedule schedule = scheduler->schedule(instance).value();
    benchmark::DoNotOptimize(schedule.makespan(instance));
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(instance.n()), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_Batch, easy, "easy")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Batch, conservative, "conservative")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Batch, lsrc, "lsrc")->Unit(benchmark::kMillisecond);

void BM_ShelfFf(benchmark::State& state) {
  const Instance instance = workload(state.range(0), false);
  const auto scheduler = make_scheduler("shelf-ff");
  for (auto _ : state) {
    const Schedule schedule = scheduler->schedule(instance).value();
    benchmark::DoNotOptimize(schedule.makespan(instance));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ShelfFf)->RangeMultiplier(4)->Range(128, 4096)->Complexity();

void BM_LowerBound(benchmark::State& state) {
  const Instance instance = workload(state.range(0), true);
  for (auto _ : state)
    benchmark::DoNotOptimize(makespan_lower_bound(instance));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LowerBound)->RangeMultiplier(4)->Range(128, 4096)->Complexity();

}  // namespace

RESCHED_BENCH_MAIN(print_tables, "BENCH_throughput.json")
