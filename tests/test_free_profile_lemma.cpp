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
// which is what branch-and-bound backtracking assumes. Undo is LIFO by
// contract (tokens resolve newest-first); both the token rollback and a
// whole-stack rewind_to are exercised.
#include "core/profile_allocator.hpp"

#include <gtest/gtest.h>

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

TEST(FreeProfileLemma, TentativeCommitsUnwindToIdenticalProfile) {
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
    ASSERT_EQ(free.open_commits(), placed.size());

    if (prng.chance(0.5)) {
      while (!placed.empty()) {
        free.rollback(std::move(placed.back()));
        placed.pop_back();
      }
    } else {
      free.rewind_to(before);
    }
    ASSERT_EQ(free.open_commits(), 0u);
    ASSERT_EQ(free.profile(), snapshot)
        << "tentative commits did not round-trip";
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
