// Experiment E9b -- data-structure microbenchmarks.
//
// StepProfile is the single structure under every scheduler; these benches
// pin down the cost of its core operations as the segment count grows.
// BM_BackfillQueuePass does the same for the pending-job structure of the
// LSRC and EASY event loops as the machine width grows.
#include "bench_util.hpp"

#include "algorithms/backfill_queue.hpp"
#include "core/arena.hpp"
#include "core/profile_allocator.hpp"
#include "core/step_profile.hpp"
#include "util/prng.hpp"

namespace {

using namespace resched;

StepProfile busy_profile(std::int64_t segments, std::uint64_t seed) {
  StepProfile profile(256);
  Prng prng(seed);
  for (std::int64_t i = 0; i < segments; ++i) {
    const Time start = prng.uniform_int(0, 100'000);
    const Time len = prng.uniform_int(1, 500);
    profile.add(start, start + len, prng.uniform_int(-2, 2));
  }
  // Keep it a valid capacity profile.
  if (profile.min_value() < 0) {
    StepProfile lifted(256 - profile.min_value());
    return lifted.plus(profile.minus(StepProfile(256)));
  }
  return profile;
}

void print_tables() {
  benchutil::print_header(
      "StepProfile microbenchmarks (E9)",
      "Core profile operations vs segment count; timings below.");
}

// One add of a 200-tick window at a random position. The profile is built
// once, outside the timed loop; iterations alternate an add of -1 at a
// fresh random start with its inverse at the same start, so every
// iteration is exactly one add and the profile returns to its initial
// state every second iteration (as in BM_ProfileAddAt below).
void BM_ProfileAdd(benchmark::State& state) {
  StepProfile profile = busy_profile(state.range(0), 2);
  Prng prng(1);
  Time start = 0;
  std::uint64_t allocs = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    const bool fresh = ops % 2 == 0;
    if (fresh) start = prng.uniform_int(0, 100'000);
    const std::uint64_t allocs_begin = alloc_count();
    profile.add(start, start + 200, fresh ? -1 : 1);
    allocs += alloc_count() - allocs_begin;
    ++ops;
    benchmark::DoNotOptimize(profile.segment_count());
  }
  state.counters["allocs_per_op"] =
      ops > 0 ? static_cast<double>(allocs) / static_cast<double>(ops) : 0.0;
}
BENCHMARK(BM_ProfileAdd)->Range(64, 4096);

// One add of a short window at a fixed fraction of the profile's span:
// near the front (where event-loop schedulers commit at their clock), in
// the middle, near the back. The profile is built once, outside the timed
// loop; iterations alternate +1 and -1 so every iteration is exactly one
// add (two splits or two coalesces) and the profile returns to its
// initial state every second iteration. moved_slots_per_op is the segment
// store's noise-free work counter: the two-ended store shifts the shorter
// side of each edit point, so front and back adds move a few slots and a
// middle add about half the profile.
void BM_ProfileAddAt(benchmark::State& state, double fraction) {
  StepProfile profile = busy_profile(state.range(0), 2);
  const Time at = static_cast<Time>(fraction * 100'000);
  const std::size_t segments = profile.segment_count();
  const std::uint64_t moved_begin = profile.moved_slots();
  std::int64_t delta = 1;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    profile.add(at, at + 50, delta);
    delta = -delta;
    ++ops;
    benchmark::DoNotOptimize(profile.segment_count());
  }
  state.counters["segments"] = static_cast<double>(segments);
  state.counters["moved_slots_per_op"] =
      ops > 0 ? static_cast<double>(profile.moved_slots() - moved_begin) /
                    static_cast<double>(ops)
              : 0.0;
}
BENCHMARK_CAPTURE(BM_ProfileAddAt, front, 0.02)->Arg(512)->Arg(4096);
BENCHMARK_CAPTURE(BM_ProfileAddAt, mid, 0.50)->Arg(512)->Arg(4096);
BENCHMARK_CAPTURE(BM_ProfileAddAt, back, 0.98)->Arg(512)->Arg(4096);

void BM_ProfileMinIn(benchmark::State& state) {
  const StepProfile profile = busy_profile(state.range(0), 3);
  Prng prng(4);
  for (auto _ : state) {
    const Time start = prng.uniform_int(0, 100'000);
    benchmark::DoNotOptimize(profile.min_in(start, start + 1000));
  }
}
BENCHMARK(BM_ProfileMinIn)->Range(64, 16384);

void BM_ProfileMinInWide(benchmark::State& state) {
  // Windows spanning a quarter of the horizon: the regime where a linear
  // scan visits thousands of segments per query.
  const StepProfile profile = busy_profile(state.range(0), 3);
  Prng prng(4);
  for (auto _ : state) {
    const Time start = prng.uniform_int(0, 75'000);
    benchmark::DoNotOptimize(profile.min_in(start, start + 25'000));
  }
}
BENCHMARK(BM_ProfileMinInWide)->Range(64, 16384);

void BM_ProfileFirstBelow(benchmark::State& state) {
  const StepProfile profile = busy_profile(state.range(0), 3);
  // A threshold at the profile floor forces the worst case: the whole
  // window is searched and nothing is found.
  const std::int64_t floor = profile.min_value();
  Prng prng(11);
  for (auto _ : state) {
    const Time start = prng.uniform_int(0, 100'000);
    benchmark::DoNotOptimize(profile.first_below(start, start + 50'000, floor));
  }
}
BENCHMARK(BM_ProfileFirstBelow)->Range(64, 16384);

void BM_ProfileIntegral(benchmark::State& state) {
  // Whole-horizon window: the regime where the pre-sum-index scan visited
  // every segment (the /16384 profile holds ~22k of them).
  const StepProfile profile = busy_profile(state.range(0), 5);
  for (auto _ : state)
    benchmark::DoNotOptimize(profile.integral(0, 100'000));
}
BENCHMARK(BM_ProfileIntegral)->Range(64, 16384);

void BM_TimeToAccumulate(benchmark::State& state) {
  // Target sized to ~3/4 of the horizon's area, so the lower-bound style
  // query (lower_bounds.cpp, bnb.cpp) has to cross most of the profile
  // before finding its answer.
  const StepProfile profile = busy_profile(state.range(0), 5);
  const std::int64_t target = profile.integral(0, 100'000) * 3 / 4;
  Prng prng(13);
  for (auto _ : state) {
    const Time from = prng.uniform_int(0, 10'000);
    benchmark::DoNotOptimize(profile.time_to_accumulate(from, target));
  }
}
BENCHMARK(BM_TimeToAccumulate)->Range(64, 16384);

void BM_EarliestFit(benchmark::State& state) {
  FreeProfile free(busy_profile(state.range(0), 6));
  Prng prng(7);
  for (auto _ : state) {
    const ProcCount q = prng.uniform_int(1, 200);
    benchmark::DoNotOptimize(free.earliest_fit(0, q, 300));
  }
}
BENCHMARK(BM_EarliestFit)->Range(64, 16384);

void BM_BackfillChurn(benchmark::State& state) {
  // Tentative probe loop in branch-and-bound's shape: commit a placement,
  // run a wide windowed query, revert (backtrack). The undo log reverts in
  // O(touched) and reuses its buffers, so a warm loop never allocates.
  FreeProfile free(busy_profile(state.range(0), 6));
  Prng prng(21);
  std::uint64_t allocs = 0;
  std::uint64_t probes = 0;
  for (auto _ : state) {
    const Time t = prng.uniform_int(0, 50'000);
    const ProcCount q = prng.uniform_int(1, 64);
    if (!free.fits_at(t, q, 300)) continue;
    const std::uint64_t allocs_begin = alloc_count();
    FreeProfile::CommitToken token = free.commit_tentative(t, q, 300);
    benchmark::DoNotOptimize(free.profile().min_in(0, 100'000));
    free.rollback(std::move(token));
    allocs += alloc_count() - allocs_begin;
    ++probes;
  }
  // Steady-state commit/probe/rollback cycles should be allocation-free:
  // undo frames come from the spare pool, segment edits reuse capacity.
  // CI gates this counter (bench/alloc_budget.json, probe_budgets).
  state.counters["allocs_per_probe"] =
      probes > 0 ? static_cast<double>(allocs) / static_cast<double>(probes)
                 : 0.0;
}
BENCHMARK(BM_BackfillChurn)->Range(64, 4096);

void BM_BackfillQueuePass(benchmark::State& state) {
  // 64 pending jobs with powers-of-two demands up to max_q = range(0), the
  // service workload's width shape; one full pass per iteration, every
  // candidate kept so the queue is the same each time. The pass visits
  // only the demands actually inserted (at most log2(max_q) + 1), so its
  // cost tracks those, not max_q.
  const ProcCount max_q = state.range(0);
  constexpr std::size_t kJobs = 64;
  int bits = 0;
  while ((ProcCount{1} << (bits + 1)) <= max_q) ++bits;
  BackfillQueue queue(max_q, kJobs);
  Prng prng(31);
  for (std::size_t i = 0; i < kJobs; ++i)
    queue.insert(static_cast<JobId>(i), static_cast<std::int64_t>(i),
                 ProcCount{1} << prng.uniform_int(0, bits));
  std::int64_t candidates = 0;
  for (auto _ : state) {
    queue.begin_pass();
    while (const auto entry = queue.next(max_q)) {
      benchmark::DoNotOptimize(entry->id);
      queue.keep();
      ++candidates;
    }
    queue.end_pass();
  }
  state.counters["candidates_per_pass"] =
      state.iterations() > 0 ? static_cast<double>(candidates) /
                                   static_cast<double>(state.iterations())
                             : 0.0;
}
BENCHMARK(BM_BackfillQueuePass)->Arg(32)->Arg(256)->Arg(4096);

void BM_ProfilePlus(benchmark::State& state) {
  const StepProfile a = busy_profile(state.range(0), 8);
  const StepProfile b = busy_profile(state.range(0), 9);
  for (auto _ : state) benchmark::DoNotOptimize(a.plus(b).segment_count());
}
BENCHMARK(BM_ProfilePlus)->Range(64, 4096);

}  // namespace

RESCHED_BENCH_MAIN(print_tables, "BENCH_profile_ops.json")
