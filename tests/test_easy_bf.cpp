#include "algorithms/easy_bf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "algorithms/conservative_bf.hpp"
#include "algorithms/fcfs.hpp"
#include "core/profile_allocator.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"
#include "util/checked.hpp"

namespace resched {
namespace {

// Reference EASY with the tentative-probe admission the scheduler used
// before its read-only query: commit each fitting candidate, check the
// head's reserved window, roll back when the head is pushed. It walks the
// waiting jobs as a plain FCFS list (no BackfillQueue), so the two
// implementations share nothing but FreeProfile. Jobs' ids equal their
// positions, as in ReplanRequest::queue.
struct OracleRun {
  Schedule schedule;
  std::size_t rejected = 0;      // candidates committed then rolled back
  std::size_t widest_query = 0;  // segments spanned by a head-window query
};

OracleRun oracle_easy(FreeProfile& free, const std::vector<Job>& jobs,
                      std::set<Time> events, Time t0) {
  OracleRun run{Schedule(jobs.size())};
  std::vector<JobId> arrival(jobs.size());
  std::iota(arrival.begin(), arrival.end(), JobId{0});
  std::sort(arrival.begin(), arrival.end(), [&](JobId a, JobId b) {
    const Job& x = jobs[static_cast<std::size_t>(a)];
    const Job& y = jobs[static_cast<std::size_t>(b)];
    return x.release != y.release ? x.release < y.release : a < b;
  });
  Time t = std::max(t0, jobs[static_cast<std::size_t>(arrival[0])].release);
  for (const Job& job : jobs) events.insert(job.release);
  std::vector<JobId> waiting;
  std::size_t next_arrival = 0;
  std::size_t started = 0;
  const auto start = [&](const Job& job) {
    run.schedule.set_start(job.id, t);
    events.insert(checked_add(t, job.p));
    ++started;
  };
  while (started < jobs.size()) {
    while (next_arrival < arrival.size() &&
           jobs[static_cast<std::size_t>(arrival[next_arrival])].release <= t)
      waiting.push_back(arrival[next_arrival++]);
    // Heads start while they fit.
    std::size_t head = 0;
    while (head < waiting.size()) {
      const Job& job = jobs[static_cast<std::size_t>(waiting[head])];
      if (!free.fits_at(t, job.q, job.p)) break;
      free.commit_fitted(t, job.q, job.p);
      start(job);
      ++head;
    }
    waiting.erase(waiting.begin(),
                  waiting.begin() + static_cast<std::ptrdiff_t>(head));
    if (!waiting.empty()) {
      const Job& blocked = jobs[static_cast<std::size_t>(waiting[0])];
      const Time head_start = free.earliest_fit(t, blocked.q, blocked.p);
      const Time head_end = checked_add(head_start, blocked.p);
      std::vector<JobId> kept{waiting[0]};
      for (std::size_t i = 1; i < waiting.size(); ++i) {
        const Job& job = jobs[static_cast<std::size_t>(waiting[i])];
        const Time job_end = checked_add(t, job.p);
        if (!free.fits_at(t, job.q, job.p)) {
          kept.push_back(job.id);
          continue;
        }
        if (job_end > head_start) {
          FreeProfile::CommitToken token =
              free.commit_tentative(t, job.q, job.p);
          const Time window_end = std::min(head_end, job_end);
          run.widest_query = std::max(
              run.widest_query,
              free.profile().segments_in(head_start, window_end).size());
          if (free.profile().first_below(head_start, window_end,
                                         blocked.q) != kTimeInfinity) {
            free.rollback(std::move(token));
            ++run.rejected;
            kept.push_back(job.id);
            continue;
          }
          free.accept(std::move(token));
        } else {
          free.commit_fitted(t, job.q, job.p);
        }
        start(job);
      }
      waiting = std::move(kept);
    }
    if (started == jobs.size()) break;
    const auto next = events.upper_bound(t);
    EXPECT_NE(next, events.end()) << "oracle stalled";
    if (next == events.end()) break;
    t = *next;
  }
  return run;
}

std::set<Time> reservation_ends(const Instance& instance) {
  std::set<Time> ends;
  for (const Reservation& resa : instance.reservations())
    ends.insert(resa.end());
  return ends;
}

// Random instance in one of the two regimes the differential test covers.
// Small: a few jobs on a short, lightly reserved horizon (linear-scan
// queries). Wide: 1500 alpha-restricted reservations over a 10000-tick
// horizon (>2k profile segments) and log-uniform runtimes up to 3000
// ticks, so blocked heads reserve long windows and the head-window query
// spans more than StepProfile's indexed-leaf cutoff (256 segments).
Instance random_instance(std::uint64_t seed, bool wide) {
  WorkloadConfig jobs;
  jobs.n = wide ? 160 : 24;
  jobs.m = wide ? 64 : 8;
  jobs.alpha = Rational(1, 2);
  jobs.p_max = wide ? 3000 : 30;
  jobs.width = WidthDistribution::kUniform;
  jobs.mean_interarrival = wide ? 50.0 : 2.0;
  AlphaReservationConfig resa;
  resa.alpha = Rational(1, 2);
  resa.count = wide ? 1500 : 6;
  resa.horizon = wide ? 10000 : 60;
  resa.max_duration = wide ? 30 : 15;
  return with_alpha_restricted_reservations(random_workload(jobs, seed), resa,
                                            seed ^ 0x5eedu);
}

TEST(EasyBf, BackfillsWhenHeadUnharmed) {
  // Head (job 1, q=2) reserved at t=10; job 2 (p <= 10) backfills at 0.
  const Instance instance(
      2, {Job{0, 1, 10, 0, ""}, Job{1, 2, 5, 0, ""}, Job{2, 1, 10, 0, ""}});
  const Schedule schedule = EasyBackfillScheduler().schedule(instance).value();
  EXPECT_EQ(schedule.start(0), 0);
  EXPECT_EQ(schedule.start(2), 0);   // ends at 10 = head's reservation
  EXPECT_EQ(schedule.start(1), 10);  // head unharmed
}

TEST(EasyBf, RefusesBackfillThatDelaysHead) {
  // Job 2 (p = 11) would push the head's start from 10 to 11: denied.
  const Instance instance(
      2, {Job{0, 1, 10, 0, ""}, Job{1, 2, 5, 0, ""}, Job{2, 1, 11, 0, ""}});
  const Schedule schedule = EasyBackfillScheduler().schedule(instance).value();
  EXPECT_EQ(schedule.start(0), 0);
  EXPECT_EQ(schedule.start(1), 10);
  EXPECT_GE(schedule.start(2), 10);  // had to wait
}

TEST(EasyBf, HeadChainsStartImmediately) {
  const Instance instance(
      4, {Job{0, 2, 3, 0, ""}, Job{1, 2, 3, 0, ""}, Job{2, 4, 2, 0, ""}});
  const Schedule schedule = EasyBackfillScheduler().schedule(instance).value();
  // Jobs 0 and 1 start at 0 (heads in succession); job 2 needs all 4.
  EXPECT_EQ(schedule.start(0), 0);
  EXPECT_EQ(schedule.start(1), 0);
  EXPECT_EQ(schedule.start(2), 3);
}

TEST(EasyBf, RespectsReservations) {
  const Instance instance(2, {Job{0, 2, 4, 0, ""}, Job{1, 1, 2, 0, ""}},
                          {Reservation{0, 2, 2, 3, ""}});
  const Schedule schedule = EasyBackfillScheduler().schedule(instance).value();
  ASSERT_TRUE(schedule.validate(instance).ok);
  EXPECT_EQ(schedule.start(0), 5);  // q=2 for 4 ticks only fits after [3,5)
  EXPECT_EQ(schedule.start(1), 0);  // narrow short one backfills before
}

TEST(EasyBf, RespectsReleases) {
  const Instance instance(2, {Job{0, 1, 3, 4, ""}, Job{1, 1, 3, 0, ""}});
  const Schedule schedule = EasyBackfillScheduler().schedule(instance).value();
  EXPECT_EQ(schedule.start(1), 0);
  EXPECT_EQ(schedule.start(0), 4);
}

TEST(EasyBf, MoreAggressiveThanConservativeOnStarvationFamily) {
  // A stream of narrow jobs behind a wide head: EASY backfills them all,
  // conservative does too here; both must beat strict FCFS.
  std::vector<Job> jobs;
  jobs.push_back(Job{0, 1, 10, 0, "runner"});
  jobs.push_back(Job{1, 4, 2, 0, "wide-head"});
  for (int i = 0; i < 6; ++i)
    jobs.push_back(Job{static_cast<JobId>(2 + i), 1, 10, 0, ""});
  const Instance instance(4, std::move(jobs));
  const Time easy = EasyBackfillScheduler().schedule(instance).value()
                        .makespan(instance);
  const Time fcfs = FcfsScheduler().schedule(instance).value().makespan(instance);
  EXPECT_LT(easy, fcfs);
}

TEST(EasyBf, FeasibleAcrossRandomInstances) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    WorkloadConfig config;
    config.n = 40;
    config.m = 16;
    config.mean_interarrival = 3.0;  // online arrivals
    const Instance instance = random_workload(config, seed);
    const Schedule schedule = EasyBackfillScheduler().schedule(instance).value();
    const ValidationResult result = schedule.validate(instance);
    EXPECT_TRUE(result.ok) << "seed " << seed << ": " << result.error;
  }
}

TEST(EasyBf, EmptyInstance) {
  const Instance instance(2, {});
  EXPECT_EQ(EasyBackfillScheduler().schedule(instance).value().makespan(instance), 0);
}

class EasyDifferential : public ::testing::TestWithParam<bool> {};

TEST_P(EasyDifferential, ScheduleMatchesTentativeProbeOracle) {
  const bool wide = GetParam();
  std::size_t rejected = 0;
  std::size_t widest = 0;
  for (std::uint64_t seed = 1; seed <= (wide ? 6u : 60u); ++seed) {
    const Instance instance = random_instance(seed, wide);
    FreeProfile free = FreeProfile::for_instance(instance);
    if (wide) {
      ASSERT_GT(free.profile().segment_count(), 2000u) << "seed " << seed;
    }
    const OracleRun oracle =
        oracle_easy(free, instance.jobs(), reservation_ends(instance), 0);
    const Schedule schedule =
        EasyBackfillScheduler().schedule(instance).value();
    ASSERT_EQ(schedule, oracle.schedule) << "seed " << seed;
    ASSERT_TRUE(schedule.validate(instance).ok) << "seed " << seed;
    rejected += oracle.rejected;
    widest = std::max(widest, oracle.widest_query);
  }
  // The comparison is only meaningful if admission said no some of the
  // time -- and, in the wide regime, on windows the index answers.
  EXPECT_GT(rejected, 0u);
  if (wide) {
    EXPECT_GT(widest, 256u);
  }
}

TEST_P(EasyDifferential, RetainModeReplanRecordsTheOracleFrames) {
  // The service's plan-recording path: replan on a retain-mode profile
  // must produce the oracle's schedule *and* its frame stack (an accepted
  // tentative frame and a retained commit_fitted frame are the same
  // record), from any start clock.
  const bool wide = GetParam();
  for (std::uint64_t seed = 1; seed <= (wide ? 4u : 40u); ++seed) {
    const Instance instance = random_instance(seed, wide);
    const Time now = static_cast<Time>(seed % 3) * (wide ? 200 : 5);
    const std::set<Time> ends = reservation_ends(instance);
    const std::vector<Time> wakeups(ends.begin(), ends.end());

    FreeProfile free = FreeProfile::for_instance(instance);
    free.set_retain_accepted(true);
    const FreeProfile::Checkpoint before = free.checkpoint();
    const Schedule schedule = EasyBackfillScheduler().replan(ReplanRequest{
        .free = free,
        .queue = instance.jobs(),
        .wakeups = wakeups,
        .m = instance.m(),
        .now = now});

    FreeProfile reference = FreeProfile::for_instance(instance);
    reference.set_retain_accepted(true);
    const FreeProfile::Checkpoint reference_before = reference.checkpoint();
    const OracleRun oracle = oracle_easy(reference, instance.jobs(), ends, now);

    ASSERT_EQ(schedule, oracle.schedule) << "seed " << seed;
    ASSERT_EQ(free.plan_since(before), reference.plan_since(reference_before))
        << "seed " << seed;
    ASSERT_EQ(free.profile(), reference.profile()) << "seed " << seed;
    free.rewind_to(before);
    EXPECT_EQ(free.profile(), FreeProfile::for_instance(instance).profile());
  }
}

INSTANTIATE_TEST_SUITE_P(Regimes, EasyDifferential,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "WideIndexed" : "Small";
                         });

TEST(EasyBf, ReplanMutatesTheProfileOncePerPlacement) {
  // Work pin, noise-free: admission is a read-only query, so a replan on a
  // fresh profile changes it exactly once per job placed -- rejected
  // backfill candidates leave no trace -- and leaves no frame open.
  for (const bool wide : {false, true}) {
    const Instance instance = random_instance(3, wide);
    const std::set<Time> ends = reservation_ends(instance);
    const std::vector<Time> wakeups(ends.begin(), ends.end());
    FreeProfile free = FreeProfile::for_instance(instance);
    const std::uint64_t version = free.profile().version();
    const Schedule schedule = EasyBackfillScheduler().replan(ReplanRequest{
        .free = free,
        .queue = instance.jobs(),
        .wakeups = wakeups,
        .m = instance.m()});
    EXPECT_TRUE(schedule.all_scheduled());
    EXPECT_EQ(free.profile().version() - version, instance.n());
    EXPECT_EQ(free.open_commits(), 0u);

    // The tentative-probe oracle paid an add and a rollback per rejection.
    FreeProfile reference = FreeProfile::for_instance(instance);
    const std::uint64_t reference_version = reference.profile().version();
    const OracleRun oracle = oracle_easy(reference, instance.jobs(), ends, 0);
    EXPECT_GT(oracle.rejected, 0u);
    EXPECT_EQ(reference.profile().version() - reference_version,
              instance.n() + 2 * oracle.rejected);
  }
}

}  // namespace
}  // namespace resched
