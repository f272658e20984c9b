// Property test of the candidate-start lemma in profile_allocator.hpp.
//
// The lemma: for fixed committed capacity, earliest_fit(t0, q, p) always
// returns either t0 itself or a *capacity-increase breakpoint* of the free
// profile, and it is genuinely the earliest feasible start (no t in
// [t0, result) fits). Schedulers lean on this to only re-examine queues at
// capacity-increase events, so a counterexample here is a missed-start bug
// in every list/backfilling algorithm at once.
//
// Also checks that tentative commits unwind to the bit-identical profile,
// which is what branch-and-bound backtracking assumes. Frames are LIFO by
// contract (tokens resolve newest-first, and resolving any other token
// trips with the profile untouched); both the token rollback and a
// whole-stack rewind_to are exercised, on random stacks and on scripted
// ones: nested windows, windows reaching the last segment or +infinity,
// and commits that coalesce across each other's edges.
#include "core/profile_allocator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/step_profile.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

constexpr Time kHorizon = 160;

// Random non-negative capacity profile: m processors minus random
// reservations, never dipping below zero, tail capacity m.
StepProfile random_capacity(Prng& prng, ProcCount m) {
  StepProfile profile(m);
  const int reservations = static_cast<int>(prng.uniform_int(0, 24));
  for (int i = 0; i < reservations; ++i) {
    Time a = prng.uniform_int(0, kHorizon - 1);
    Time b = prng.uniform_int(1, kHorizon);
    if (a > b) std::swap(a, b);
    if (a == b) b = a + 1;
    const std::int64_t room = profile.min_in(a, b);
    if (room <= 0) continue;
    profile.add(a, b, -prng.uniform_int(1, room));
  }
  return profile;
}

bool is_capacity_increase_breakpoint(const StepProfile& profile, Time t) {
  if (t <= 0) return false;
  return profile.value_at(t) > profile.value_at(t - 1);
}

TEST(FreeProfileLemma, EarliestFitReturnsT0OrCapacityIncreaseBreakpoint) {
  Prng prng(1718);
  for (int round = 0; round < 200; ++round) {
    const ProcCount m = prng.uniform_int(1, 8);
    const FreeProfile free(random_capacity(prng, m));
    for (int query = 0; query < 16; ++query) {
      const Time t0 = prng.uniform_int(0, kHorizon);
      const ProcCount q = prng.uniform_int(1, m);
      const Time p = prng.uniform_int(1, 40);
      const Time t = free.earliest_fit(t0, q, p);

      // The result is feasible...
      ASSERT_TRUE(free.fits_at(t, q, p))
          << "t0=" << t0 << " q=" << q << " p=" << p << " -> t=" << t;
      // ...and it is t0 or an increase breakpoint (the lemma).
      ASSERT_TRUE(t == t0 || is_capacity_increase_breakpoint(free.profile(), t))
          << "earliest_fit returned t=" << t
          << " which is neither t0=" << t0
          << " nor a capacity-increase breakpoint";
      // ...and nothing earlier fits (brute force over integer starts; all
      // breakpoints are integers, so integer starts are exhaustive).
      ASSERT_LE(t, kHorizon + 1) << "fit must exist by the tail";
      for (Time s = t0; s < t; ++s)
        ASSERT_FALSE(free.fits_at(s, q, p))
            << "earliest_fit skipped feasible start s=" << s << " (t0=" << t0
            << " q=" << q << " p=" << p << " returned t=" << t << ")";
    }
  }
}

// Resolving any open token but the newest must trip before the profile or
// the frame stack is touched; tries the oldest of two or more.
void ExpectOutOfOrderTrips(FreeProfile& free,
                           std::vector<FreeProfile::CommitToken>& placed) {
  if (placed.size() < 2) return;
  const StepProfile before = free.profile();
  EXPECT_THROW(free.rollback(std::move(placed.front())), std::logic_error);
  EXPECT_THROW(free.accept(std::move(placed.front())), std::logic_error);
  ASSERT_TRUE(placed.front().live()) << "a tripped resolution spent it";
  ASSERT_EQ(free.open_commits(), placed.size());
  ASSERT_EQ(free.profile(), before) << "a tripped resolution mutated";
}

// Unwinds every open commit (token by token, newest first, or with one
// rewind_to) and checks the profile against its never-touched twin.
void UnwindAndCheck(FreeProfile& free,
                    std::vector<FreeProfile::CommitToken>& placed,
                    const FreeProfile::Checkpoint& before, bool by_tokens,
                    const StepProfile& twin) {
  ASSERT_EQ(free.open_commits(), placed.size());
  if (by_tokens) {
    while (!placed.empty()) {
      ASSERT_NO_FATAL_FAILURE(ExpectOutOfOrderTrips(free, placed));
      free.rollback(std::move(placed.back()));
      placed.pop_back();
    }
  } else {
    ASSERT_NO_FATAL_FAILURE(ExpectOutOfOrderTrips(free, placed));
    free.rewind_to(before);
    placed.clear();
  }
  ASSERT_EQ(free.open_commits(), 0u);
  ASSERT_EQ(free.profile(), twin) << "tentative commits did not round-trip";
}

TEST(FreeProfileLemma, TentativeCommitsUnwindToIdenticalProfile) {
  // Scripted stacks: a capacity profile and its commits (t, q, p) in
  // order, each fitting where it lands.
  struct Script {
    StepProfile capacity;
    std::vector<std::array<Time, 3>> commits;
  };
  std::vector<Script> scripts;
  {
    // Two disjoint commits, then two overlapping ones, on a fragmented
    // profile; the last two windows reach its last segment (the final
    // breakpoint is at 1995) and +infinity.
    StepProfile fragmented(10);
    for (Time t = 0; t < 2000; t += 10) fragmented.add(t, t + 5, (t / 10) % 4);
    scripts.push_back({fragmented,
                       {{100, 3, 100},
                        {1000, 2, 100},
                        {100, 1, 200},
                        {250, 1, 150},
                        {1990, 1, 50},
                        {1500, 2, kTimeInfinity - 1500}}});
  }
  {
    // The newer commit's right edge coalesces across the older one's
    // left region boundary: {0:5},{50:9},{100:7}, commit [150, 200),
    // then [50, 100) turns 9 into 7.
    StepProfile capacity(5);
    capacity.add(50, kTimeInfinity, 4);
    capacity.add(100, kTimeInfinity, -2);
    scripts.push_back({capacity, {{150, 2, 50}, {50, 2, 50}}});
  }
  // The newer commit starts exactly at the older one's right edge.
  scripts.push_back({StepProfile(9), {{150, 2, 50}, {200, 1, 100}}});
  {
    // The newer commit ends at the older one's start and lowers the left
    // neighbour to the older window's original value.
    StepProfile capacity(5);
    capacity.add(100, kTimeInfinity, -2);  // {0:5},{100:3}
    scripts.push_back({capacity, {{100, 1, 100}, {0, 2, 100}}});
  }
  // Nested windows, the innermost reaching +infinity.
  scripts.push_back({StepProfile(8),
                     {{10, 1, 100},
                      {20, 2, 50},
                      {30, 1, 10},
                      {30, 1, kTimeInfinity - 30}}});
  for (std::size_t k = 0; k < scripts.size(); ++k) {
    for (const bool by_tokens : {true, false}) {
      const Script& script = scripts[k];
      FreeProfile free(script.capacity);
      const FreeProfile::Checkpoint before = free.checkpoint();
      std::vector<FreeProfile::CommitToken> placed;
      for (const auto& [t, q, p] : script.commits) {
        ASSERT_TRUE(free.fits_at(t, q, p)) << "script " << k;
        placed.push_back(free.commit_tentative(t, q, p));
      }
      ASSERT_NO_FATAL_FAILURE(
          UnwindAndCheck(free, placed, before, by_tokens, script.capacity))
          << "script " << k;
    }
  }

  Prng prng(9091);
  for (int round = 0; round < 120; ++round) {
    const ProcCount m = prng.uniform_int(2, 8);
    FreeProfile free(random_capacity(prng, m));
    const StepProfile snapshot = free.profile();

    // Stack a random batch of tentative commits at their earliest fits
    // (exactly the branch-and-bound shape), then unwind newest-first; the
    // profile must come back bit-identical. Alternate between token
    // rollbacks and one rewind_to the checkpoint below the whole stack.
    const FreeProfile::Checkpoint before = free.checkpoint();
    std::vector<FreeProfile::CommitToken> placed;
    const int jobs = static_cast<int>(prng.uniform_int(1, 10));
    for (int i = 0; i < jobs; ++i) {
      const ProcCount q = prng.uniform_int(1, m);
      const Time p = prng.uniform_int(1, 30);
      const Time t0 = prng.uniform_int(0, kHorizon);
      if (free.profile().final_value() < q) continue;
      const Time t = free.earliest_fit(t0, q, p);
      placed.push_back(free.commit_tentative(t, q, p));
    }
    ASSERT_GE(free.profile().min_value(), 0)
        << "commit drove free capacity negative";
    ASSERT_NO_FATAL_FAILURE(UnwindAndCheck(free, placed, before,
                                           prng.chance(0.5), snapshot))
        << "round " << round;
  }
}

TEST(FreeProfileLemma, CommitThenRequeryNeverFindsEarlierStart) {
  // Monotonicity under commitment: committing jobs can only delay (never
  // advance) the earliest fit of another job.
  Prng prng(5555);
  for (int round = 0; round < 100; ++round) {
    const ProcCount m = prng.uniform_int(2, 6);
    FreeProfile free(random_capacity(prng, m));
    const ProcCount q = prng.uniform_int(1, m);
    const Time p = prng.uniform_int(1, 25);
    const Time before = free.earliest_fit(0, q, p);

    const ProcCount cq = prng.uniform_int(1, m);
    const Time cp = prng.uniform_int(1, 25);
    const Time ct = free.earliest_fit(prng.uniform_int(0, kHorizon), cq, cp);
    free.commit(ct, cq, cp);

    const Time after = free.earliest_fit(0, q, p);
    ASSERT_GE(after, before);
  }
}

TEST(FreeProfileLemma, EarliestFitRejectsImpossibleJobs) {
  StepProfile capacity(4);
  capacity.add(10, 20, -4);  // full blackout window
  const FreeProfile free(capacity);
  // q above the eventual free capacity violates the precondition.
  EXPECT_THROW((void)free.earliest_fit(0, 5, 1), std::invalid_argument);
  // A job that straddles the blackout must wait for its end (a
  // capacity-increase breakpoint, per the lemma).
  EXPECT_EQ(free.earliest_fit(5, 1, 10), 20);
  // A job that fits before the blackout starts at t0.
  EXPECT_EQ(free.earliest_fit(0, 4, 10), 0);
}

}  // namespace
}  // namespace resched
