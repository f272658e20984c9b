#include "core/profile_allocator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/availability.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

TEST(FreeProfile, RejectsNegativeCapacity) {
  StepProfile profile(1);
  profile.add(0, 3, -2);
  EXPECT_THROW(FreeProfile{profile}, std::invalid_argument);
}

TEST(FreeProfile, FitsAtConstantCapacity) {
  FreeProfile free{StepProfile(4)};
  EXPECT_TRUE(free.fits_at(0, 4, 10));
  EXPECT_FALSE(free.fits_at(0, 5, 1));
  EXPECT_TRUE(free.fits_at(1'000'000, 1, 1));
}

TEST(FreeProfile, FitsAtRespectsDips) {
  StepProfile profile(4);
  profile.add(5, 7, -3);  // capacity 1 on [5,7)
  FreeProfile free{profile};
  EXPECT_TRUE(free.fits_at(0, 2, 5));    // [0,5) untouched
  EXPECT_FALSE(free.fits_at(0, 2, 6));   // [0,6) touches the dip
  EXPECT_TRUE(free.fits_at(5, 1, 2));    // inside the dip, q = 1 fits
  EXPECT_FALSE(free.fits_at(6, 2, 1));   // [6,7) has only 1
  EXPECT_TRUE(free.fits_at(7, 4, 100));
}

TEST(FreeProfile, EarliestFitImmediate) {
  FreeProfile free{StepProfile(3)};
  EXPECT_EQ(free.earliest_fit(0, 3, 5), 0);
  EXPECT_EQ(free.earliest_fit(11, 1, 1), 11);
}

TEST(FreeProfile, EarliestFitSkipsDeficientSegment) {
  StepProfile profile(4);
  profile.add(2, 6, -4);  // zero capacity on [2,6)
  FreeProfile free{profile};
  // A job of length 3 from t=0 would hit [2,6); earliest is 6.
  EXPECT_EQ(free.earliest_fit(0, 1, 3), 6);
  // Length 2 fits exactly at [0,2).
  EXPECT_EQ(free.earliest_fit(0, 1, 2), 0);
  EXPECT_EQ(free.earliest_fit(1, 1, 2), 6);  // [1,3) overlaps the dip
}

TEST(FreeProfile, EarliestFitLandsOnCapacityIncrease) {
  StepProfile profile(5);
  profile.add(3, 8, -4);   // 1 on [3,8)
  profile.add(8, 12, -2);  // 3 on [8,12)
  FreeProfile free{profile};
  // q = 2, p = 4: blocked through [3,8); at 8 capacity rises to 3 and the
  // window [8,12) holds 3 >= 2.
  EXPECT_EQ(free.earliest_fit(0, 2, 4), 8);
  // q = 4, p = 1: 5 on [0,3) fits at t = 0 from t0 = 0; from t0 = 3 the
  // next fit is 12.
  EXPECT_EQ(free.earliest_fit(0, 4, 1), 0);
  EXPECT_EQ(free.earliest_fit(3, 4, 1), 12);
}

TEST(FreeProfile, EarliestFitImpossibleWidthThrows) {
  FreeProfile free{StepProfile(2)};
  EXPECT_THROW((void)free.earliest_fit(0, 3, 1), std::invalid_argument);
}

TEST(FreeProfile, TentativeCommitSubtractsAndRollbackRestores) {
  FreeProfile free{StepProfile(4)};
  FreeProfile::CommitToken token = free.commit_tentative(2, 3, 5);
  EXPECT_TRUE(token.live());
  EXPECT_EQ(free.open_commits(), 1u);
  EXPECT_EQ(free.capacity_at(2), 1);
  EXPECT_EQ(free.capacity_at(6), 1);
  EXPECT_EQ(free.capacity_at(7), 4);
  EXPECT_FALSE(free.fits_at(0, 2, 5));
  // The token reverses exactly the commit it names.
  free.rollback(std::move(token));
  EXPECT_FALSE(token.live());  // NOLINT(bugprone-use-after-move): asserted dead
  EXPECT_EQ(free.capacity_at(2), 4);
  EXPECT_EQ(free.open_commits(), 0u);
}

TEST(FreeProfile, RollbackAndAcceptResolveTokens) {
  FreeProfile free{StepProfile(4)};
  FreeProfile::CommitToken kept = free.commit_tentative(0, 2, 10);
  free.accept(std::move(kept));
  EXPECT_FALSE(kept.live());  // NOLINT(bugprone-use-after-move): asserted dead
  EXPECT_EQ(free.capacity_at(5), 2);
  EXPECT_EQ(free.open_commits(), 0u);

  FreeProfile::CommitToken probe = free.commit_tentative(3, 2, 4);
  EXPECT_EQ(free.capacity_at(4), 0);
  free.rollback(std::move(probe));
  EXPECT_EQ(free.capacity_at(4), 2);
  // The accepted commit stays in effect.
  EXPECT_EQ(free.capacity_at(9), 2);
  EXPECT_EQ(free.capacity_at(10), 4);
}

TEST(FreeProfile, DeadTokenTripsInsteadOfInflatingCapacity) {
  // Regression: reverting an allocation that never was (or no longer is) a
  // live commit used to blindly add capacity back, silently raising the
  // profile above the instance's availability. A token that does not name
  // the newest open tentative commit must trip RESCHED_CHECK instead.
  FreeProfile free{StepProfile(4)};
  // A never-issued token, with no open commit at all.
  EXPECT_THROW(free.rollback(FreeProfile::CommitToken{}), std::logic_error);
  EXPECT_EQ(free.capacity_at(2), 4) << "failed rollback must not mutate";

  FreeProfile::CommitToken token = free.commit_tentative(2, 3, 5);
  // A never-issued or moved-from token trips even with a commit open; the
  // profile stays committed and the live token keeps its frame.
  EXPECT_THROW(free.rollback(FreeProfile::CommitToken{}), std::logic_error);
  EXPECT_THROW(free.accept(FreeProfile::CommitToken{}), std::logic_error);
  FreeProfile::CommitToken moved = std::move(token);
  EXPECT_THROW(free.rollback(std::move(token)), std::logic_error);
  EXPECT_EQ(free.capacity_at(2), 1);
  EXPECT_EQ(free.open_commits(), 1u);
  // A permanent commit is not revocable either: accept() spends the token.
  free.accept(std::move(moved));
  EXPECT_THROW(free.rollback(std::move(moved)), std::logic_error);
  EXPECT_EQ(free.capacity_at(2), 1);
  EXPECT_EQ(free.open_commits(), 0u);
}

TEST(FreeProfile, TokensResolveNewestFirst) {
  FreeProfile free{StepProfile(8)};
  FreeProfile::CommitToken first = free.commit_tentative(0, 2, 4);
  FreeProfile::CommitToken second = free.commit_tentative(1, 3, 4);
  // Resolving the older token out of order trips the LIFO check (and
  // leaves it live: a failed resolve consumes nothing).
  EXPECT_THROW(free.rollback(std::move(first)), std::logic_error);
  EXPECT_THROW(free.accept(std::move(first)), std::logic_error);
  EXPECT_TRUE(first.live());  // NOLINT(bugprone-use-after-move)
  // Unwinding newest-first works.
  free.rollback(std::move(second));
  EXPECT_EQ(free.capacity_at(2), 6);
  EXPECT_EQ(free.open_commits(), 1u);
  // A dead token cannot resolve anything.
  EXPECT_THROW(free.rollback(std::move(second)), std::logic_error);
}

TEST(FreeProfile, CommitRequiresFit) {
  FreeProfile free{StepProfile(2)};
  free.commit(0, 2, 3);
  EXPECT_THROW(free.commit(1, 1, 1), std::invalid_argument);
}

TEST(FreeProfile, TentativeProbeLoopLeavesTheProfileBitIdentical) {
  // The acceptance criterion of plan frames: a tentative probe sequence
  // (commit -> wide windowed probe -> rollback) on a warm ~4k-segment
  // profile restores the profile bit for bit and never touches the heap.
  StepProfile capacity(64);
  for (Time t = 0; t < 20000; t += 10)
    capacity.add(t, t + 5, -(1 + (t / 10) % 3));
  FreeProfile free(capacity);
  ASSERT_GT(free.profile().segment_count(), 3900u);
  Prng prng(2026);
  const auto probe_once = [&] {
    const Time t = prng.uniform_int(0, 19000);
    const ProcCount q = prng.uniform_int(1, 32);
    const Time p = prng.uniform_int(1, 200);
    if (!free.fits_at(t, q, p)) return;
    FreeProfile::CommitToken token = free.commit_tentative(t, q, p);
    (void)free.fits_at(0, 1, 21000);  // wide probe over the whole profile
    free.rollback(std::move(token));
  };
  // Warm-up: the segment store grows to its working capacity.
  for (int probe = 0; probe < 200; ++probe) probe_once();
  const StepProfile before = free.profile();
  const std::uint64_t allocs_after_warmup = free.profile().alloc_count();
  for (int probe = 0; probe < 4000; ++probe) {
    probe_once();
    ASSERT_EQ(free.profile(), before) << "probe " << probe;
  }
  EXPECT_EQ(free.profile().alloc_count(), allocs_after_warmup)
      << "tentative probes on a warm profile must not allocate";
}

TEST(FreeProfile, ForInstanceUsesAvailability) {
  const Instance instance(6, {Job{0, 1, 1, 0, ""}},
                          {Reservation{0, 4, 5, 2, ""}});
  const FreeProfile free = FreeProfile::for_instance(instance);
  EXPECT_EQ(free.capacity_at(0), 6);
  EXPECT_EQ(free.capacity_at(2), 2);
  EXPECT_EQ(free.capacity_at(7), 6);
}

// Differential property: earliest_fit agrees with a brute-force scan over
// every candidate start time on random small profiles.
class EarliestFitRandomized : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EarliestFitRandomized, AgreesWithBruteForce) {
  constexpr Time kHorizon = 48;
  Prng prng(GetParam());
  StepProfile profile(5);
  for (int i = 0; i < 10; ++i) {
    const Time a = prng.uniform_int(0, kHorizon - 1);
    const Time len = prng.uniform_int(1, 12);
    const std::int64_t delta = prng.uniform_int(-2, 0);
    if (profile.min_in(a, a + len) + delta >= 0)
      profile.add(a, a + len, delta);
  }
  FreeProfile free{profile};

  for (int trial = 0; trial < 60; ++trial) {
    const ProcCount q = prng.uniform_int(1, 5);
    const Time p = prng.uniform_int(1, 10);
    const Time t0 = prng.uniform_int(0, kHorizon);
    const Time got = free.earliest_fit(t0, q, p);
    // Brute force: first t >= t0 with min over [t, t+p) >= q; scanning past
    // the last possible breakpoint (kHorizon + max added length) is enough
    // because the profile is constant 5 beyond it.
    Time expected = kTimeInfinity;
    for (Time t = t0; t <= kHorizon + 13; ++t) {
      if (profile.min_in(t, t + p) >= q) {
        expected = t;
        break;
      }
    }
    ASSERT_EQ(got, expected) << "q=" << q << " p=" << p << " t0=" << t0;
    // And the returned start indeed fits.
    ASSERT_TRUE(free.fits_at(got, q, p));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EarliestFitRandomized,
                         ::testing::Values(10, 11, 12, 13, 14, 15));

TEST(FreeProfileVersioned, CheckpointRewindRestoresPlanState) {
  FreeProfile free{StepProfile(8)};
  free.set_retain_accepted(true);
  const FreeProfile::Checkpoint before = free.checkpoint();

  // A plan in recording mode: permanent-API commits become frames too.
  free.commit_fitted(0, 3, 10);
  free.commit(5, 2, 4);
  FreeProfile::CommitToken probe = free.commit_tentative(12, 8, 2);
  free.accept(std::move(probe));
  EXPECT_EQ(free.open_commits(), 3u);
  EXPECT_EQ(free.capacity_at(6), 3);
  EXPECT_EQ(free.capacity_at(12), 0);

  free.rewind_to(before);
  EXPECT_EQ(free.open_commits(), 0u);
  EXPECT_EQ(free.capacity_at(0), 8);
  EXPECT_EQ(free.capacity_at(6), 8);
  EXPECT_EQ(free.capacity_at(12), 8);
  // Rewinding to the same checkpoint again is a no-op, not an error.
  free.rewind_to(before);
}

TEST(FreeProfileVersioned, RewindToMidPlanCheckpointUnwindsOnlyTheSuffix) {
  FreeProfile free{StepProfile(8)};
  free.set_retain_accepted(true);
  free.commit_fitted(0, 2, 10);
  const FreeProfile::Checkpoint mid = free.checkpoint();
  free.commit_fitted(0, 4, 5);
  EXPECT_EQ(free.capacity_at(0), 2);
  free.rewind_to(mid);
  EXPECT_EQ(free.capacity_at(0), 6) << "prefix frame must survive";
  EXPECT_EQ(free.open_commits(), 1u);
}

TEST(FreeProfileVersioned, PlanSinceListsTheRecordedDecisions) {
  FreeProfile free{StepProfile(8)};
  free.set_retain_accepted(true);
  const FreeProfile::Checkpoint before = free.checkpoint();
  free.commit_fitted(0, 3, 10);
  FreeProfile::CommitToken probe = free.commit_tentative(10, 2, 4);
  free.accept(std::move(probe));
  FreeProfile::CommitToken open = free.commit_tentative(20, 1, 1);

  const std::vector<FreeProfile::PlanStep> plan = free.plan_since(before);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0], (FreeProfile::PlanStep{0, 3, 10, true}));
  EXPECT_EQ(plan[1], (FreeProfile::PlanStep{10, 2, 4, true}));
  EXPECT_EQ(plan[2], (FreeProfile::PlanStep{20, 1, 1, false}));
  free.rollback(std::move(open));
  EXPECT_EQ(free.plan_since(before).size(), 2u);
  free.rewind_to(before);
  EXPECT_TRUE(free.plan_since(before).empty());
}

TEST(FreeProfileVersioned, AcceptedFramesRefuseTokenRollback) {
  // A retained *accepted* frame is a sealed plan decision that only
  // rewind_to may unwind: its spent token cannot roll it back, and it
  // shields every older token beneath it.
  FreeProfile free{StepProfile(4)};
  free.set_retain_accepted(true);
  const FreeProfile::Checkpoint before = free.checkpoint();
  FreeProfile::CommitToken older = free.commit_tentative(5, 1, 5);
  FreeProfile::CommitToken token = free.commit_tentative(0, 2, 5);
  free.accept(std::move(token));
  EXPECT_THROW(free.rollback(std::move(token)), std::logic_error);
  EXPECT_EQ(free.capacity_at(0), 2) << "failed rollback must not mutate";
  EXPECT_THROW(free.rollback(std::move(older)), std::logic_error);
  EXPECT_EQ(free.capacity_at(5), 3) << "failed rollback must not mutate";
  EXPECT_EQ(free.open_commits(), 2u);
  free.rewind_to(before);
  EXPECT_EQ(free.profile(), StepProfile(4));
}

TEST(FreeProfileVersioned, OverflowingCommitLeavesStackSegmentsAndRewind) {
  // A frame is pushed only after its add succeeds: a commit whose t + p
  // overflows throws with the frame stack, the segments and the rewind of
  // an earlier checkpoint all unchanged.
  constexpr Time kLate = std::numeric_limits<Time>::max() - 5;
  FreeProfile free{StepProfile(8)};
  free.set_retain_accepted(true);
  const FreeProfile::Checkpoint before = free.checkpoint();
  free.commit_fitted(0, 3, 10);
  const FreeProfile::Checkpoint mid = free.checkpoint();
  const StepProfile at_mid = free.profile();
  FreeProfile::CommitToken open = free.commit_tentative(5, 2, 10);
  const StepProfile segments = free.profile();
  EXPECT_THROW((void)free.commit_tentative(kLate, 1, 10), std::overflow_error);
  EXPECT_THROW(free.commit_fitted(kLate, 1, 10), std::overflow_error);
  EXPECT_EQ(free.open_commits(), 2u);
  EXPECT_EQ(free.profile(), segments);
  // The open token is still the newest frame, and both checkpoints still
  // rewind to their exact state.
  free.rollback(std::move(open));
  free.rewind_to(mid);
  EXPECT_EQ(free.open_commits(), 1u);
  EXPECT_EQ(free.profile(), at_mid);
  free.rewind_to(before);
  EXPECT_EQ(free.open_commits(), 0u);
  EXPECT_EQ(free.profile(), StepProfile(8));
}

TEST(FreeProfileVersioned, ToggleRetainRequiresEmptyStack) {
  FreeProfile free{StepProfile(4)};
  FreeProfile::CommitToken token = free.commit_tentative(0, 1, 1);
  EXPECT_THROW(free.set_retain_accepted(true), std::invalid_argument);
  free.rollback(std::move(token));
  free.set_retain_accepted(true);
  EXPECT_TRUE(free.retain_accepted());
}

TEST(FreeProfileVersioned, RewindRefusesToCrossPermanentMutations) {
  FreeProfile free{StepProfile(8)};
  free.set_retain_accepted(true);
  const FreeProfile::Checkpoint before = free.checkpoint();
  free.adjust_capacity(0, 10, -3);  // the world moved: not a plan frame
  EXPECT_THROW(free.rewind_to(before), std::logic_error);
  EXPECT_EQ(free.capacity_at(5), 5) << "failed rewind must not mutate";
}

TEST(FreeProfileVersioned, AdjustCapacityContracts) {
  FreeProfile free{StepProfile(4)};
  // Withdrawals must stay within the window's minimum free capacity.
  EXPECT_THROW(free.adjust_capacity(0, 10, -5), std::invalid_argument);
  free.adjust_capacity(2, 6, -4);
  EXPECT_EQ(free.capacity_at(3), 0);
  EXPECT_THROW(free.adjust_capacity(0, 4, -1), std::invalid_argument);
  // Restores lift the window back; a cancellation refund.
  free.adjust_capacity(2, 6, 4);
  EXPECT_EQ(free.capacity_at(3), 4);
  // Plans must be rewound before the world moves.
  FreeProfile::CommitToken token = free.commit_tentative(0, 1, 1);
  EXPECT_THROW(free.adjust_capacity(0, 1, -1), std::logic_error);
  free.rollback(std::move(token));
  EXPECT_THROW(free.adjust_capacity(3, 3, -1), std::invalid_argument);
}

TEST(FreeProfileVersioned, CompactHistoryPreservesTheLiveSuffix) {
  FreeProfile free{StepProfile(16)};
  for (Time t = 0; t < 100; t += 10) free.adjust_capacity(t, t + 5, -1);
  const std::size_t segments_before = free.profile().segment_count();
  const ProcCount at_now = free.capacity_at(52);
  const ProcCount later = free.capacity_at(75);
  const std::size_t removed = free.compact_history(52);
  EXPECT_GT(removed, 0u);
  EXPECT_LT(free.profile().segment_count(), segments_before);
  EXPECT_EQ(free.capacity_at(52), at_now);
  EXPECT_EQ(free.capacity_at(75), later);
  EXPECT_EQ(free.capacity_at(1000), 16);
  // A checkpoint taken before a compaction is no longer rewindable: the
  // coalescing is a permanent mutation.
  free.set_retain_accepted(true);
  const FreeProfile::Checkpoint before = free.checkpoint();
  ASSERT_GT(free.compact_history(60), 0u);
  EXPECT_THROW(free.rewind_to(before), std::logic_error);
  EXPECT_EQ(free.capacity_at(75), later);
}

// Differential twin fuzz: a long random interleaving of plan frames,
// checkpoints, rewinds and permanent mutations stays bit-identical to a
// twin that re-derives the profile from the surviving operations. Odd
// rounds start from a fragmented profile of hundreds of segments. Commits
// nest inside the newest frame's window, abut its edges (equal values then
// coalesce across them) or reach the profile's last segment or +infinity;
// a tentative pair checks that resolving the older token first trips with
// nothing changed. Every rewind compares the segments bit for bit, and
// every full unwind compares them with a twin that never saw a frame.
TEST(FreeProfileVersioned, CheckpointRewindTwinFuzz) {
  constexpr Time kWide = 4096;
  Prng prng(777);
  for (int round = 0; round < 20; ++round) {
    const bool wide = round % 2 == 1;
    // The base profile plus the permanent mutations; never sees a frame.
    StepProfile untouched(32);
    if (wide) {
      for (int i = 0; i < 500; ++i) {
        const Time a = prng.uniform_int(0, kWide - 2);
        const Time b = a + prng.uniform_int(1, 24);
        const std::int64_t delta = prng.uniform_int(-2, 3);
        if (untouched.min_in(a, b) + delta >= 0) untouched.add(a, b, delta);
      }
      ASSERT_GT(untouched.segment_count(), 256u);
    }
    const Time horizon = wide ? kWide : 400;
    // Past every breakpoint the fragmenting adds and the random commits
    // can make.
    const Time past_last = horizon + 64;
    FreeProfile free{untouched};
    free.set_retain_accepted(true);
    // The twin records every frame that is still in effect.
    struct Op {
      Time from = 0, to = 0;
      std::int64_t delta = 0;
    };
    std::vector<Op> frames;
    struct Mark {
      FreeProfile::Checkpoint cp;
      std::size_t frame_count = 0;
    };
    std::vector<Mark> marks;
    // Depth-0 checkpoint, retaken after every permanent mutation.
    FreeProfile::Checkpoint base = free.checkpoint();
    const auto expect_twin = [&](int step) {
      StepProfile twin = untouched;
      for (const Op& op : frames) twin.add(op.from, op.to, op.delta);
      ASSERT_EQ(free.profile(), twin) << "round " << round << " step " << step;
      if (frames.empty()) {
        ASSERT_EQ(free.profile(), untouched)
            << "round " << round << " step " << step;
      }
    };
    const auto try_commit = [&](Time t, ProcCount q, Time p) {
      if (t < 0 || p <= 0 || !free.fits_at(t, q, p)) return;
      free.commit_fitted(t, q, p);
      frames.push_back(Op{t, t + p, -static_cast<std::int64_t>(q)});
    };

    for (int step = 0; step < 160; ++step) {
      const int roll = static_cast<int>(prng.uniform_int(0, 11));
      const Time t = prng.uniform_int(0, horizon);
      const ProcCount q = prng.uniform_int(1, 8);
      const Time p = prng.uniform_int(1, 40);
      if (roll < 3) {
        try_commit(t, q, p);
      } else if (roll == 3 && !frames.empty()) {
        // Nested inside the newest frame's window.
        const Op& outer = frames.back();
        const Time end = std::min(outer.to, outer.from + 200);
        const Time inner = prng.uniform_int(outer.from, end - 1);
        try_commit(inner, q, prng.uniform_int(1, end - inner));
      } else if (roll == 4 && !frames.empty()) {
        // Abutting the newest frame's left or right edge, same width.
        const Op outer = frames.back();
        const auto width = static_cast<ProcCount>(-outer.delta);
        if (prng.chance(0.5) && outer.to < kTimeInfinity)
          try_commit(outer.to, width, p);
        else
          try_commit(outer.from - p, width, p);
      } else if (roll == 5) {
        // Reaching the last segment, or +infinity.
        const ProcCount narrow = prng.uniform_int(1, 2);
        try_commit(t, narrow,
                   prng.chance(0.5) ? kTimeInfinity - t : past_last - t);
      } else if (roll == 6) {
        // A tentative pair resolved out of order trips and changes nothing.
        if (!free.fits_at(t, q, p)) continue;
        FreeProfile::CommitToken older = free.commit_tentative(t, q, p);
        const Time inner = prng.uniform_int(t, t + p - 1);
        const ProcCount q2 = prng.uniform_int(1, 4);
        if (free.fits_at(inner, q2, 1)) {
          FreeProfile::CommitToken newer = free.commit_tentative(inner, q2, 1);
          const StepProfile before = free.profile();
          const std::size_t open = free.open_commits();
          EXPECT_THROW(free.rollback(std::move(older)), std::logic_error);
          EXPECT_THROW(free.accept(std::move(older)), std::logic_error);
          ASSERT_TRUE(older.live());
          ASSERT_EQ(free.open_commits(), open);
          ASSERT_EQ(free.profile(), before);
          free.rollback(std::move(newer));
        }
        if (prng.chance(0.5)) {
          free.accept(std::move(older));  // retained: a plan frame now
          frames.push_back(Op{t, t + p, -static_cast<std::int64_t>(q)});
        } else {
          free.rollback(std::move(older));
        }
        ASSERT_NO_FATAL_FAILURE(expect_twin(step));
      } else if (roll < 9) {
        marks.push_back(Mark{free.checkpoint(), frames.size()});
      } else if (roll < 11 && !marks.empty()) {
        const std::size_t pick = static_cast<std::size_t>(
            prng.uniform_int(0, static_cast<std::int64_t>(marks.size()) - 1));
        const Mark mark = marks[pick];
        free.rewind_to(mark.cp);
        frames.resize(mark.frame_count);
        marks.resize(pick + 1);
        ASSERT_NO_FATAL_FAILURE(expect_twin(step));
      } else if (frames.empty()) {
        // Permanent mutations require an empty frame stack; only attempt
        // one between plans.
        if (free.profile().min_in(t, t + p) < q) continue;
        free.adjust_capacity(t, t + p, -static_cast<std::int64_t>(q));
        untouched.add(t, t + p, -static_cast<std::int64_t>(q));
        marks.clear();  // checkpoints cannot cross a permanent mutation
        base = free.checkpoint();
      }
    }

    ASSERT_NO_FATAL_FAILURE(expect_twin(-1));
    free.rewind_to(base);
    frames.clear();
    ASSERT_NO_FATAL_FAILURE(expect_twin(-2));
  }
}

}  // namespace
}  // namespace resched
