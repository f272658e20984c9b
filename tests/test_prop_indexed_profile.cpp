// Differential fuzz suite for the segment-tree-indexed StepProfile and the
// FreeProfile built on top of it.
//
// The index (step_profile.hpp, invariants I1-I5) only engages on windows
// spanning more than kIndexedLeafCutoff segments, so unlike
// test_prop_step_profile (horizon 96) this suite drives profiles with many
// hundreds of segments: every query here exercises the lazily built tree,
// its incremental lazy range-adds, boundary-leaf recomputes and
// budget-triggered rebuilds against a naive dense-array model.
//
// Also re-asserts the candidate-start lemma of profile_allocator.hpp on the
// indexed path, checks canonical form after every commit/rollback
// interleaving, and pins the strong exception guarantee of add(): an
// overflow mid-window must leave the profile untouched (the seed
// implementation applied partial deltas and left equal-value neighbours
// unmerged).
#include "core/profile_allocator.hpp"
#include "core/step_profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/prng.hpp"

namespace resched {
namespace {

void ExpectCanonical(const StepProfile& profile) {
  const auto segments = profile.segments();
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments.front().start, 0);
  EXPECT_EQ(segments.back().end, kTimeInfinity);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    EXPECT_LT(segments[i].start, segments[i].end);
    if (i + 1 < segments.size()) {
      EXPECT_EQ(segments[i].end, segments[i + 1].start);
      EXPECT_NE(segments[i].value, segments[i + 1].value)
          << "adjacent segments must have distinct values (canonical form)";
    }
  }
}

// Dense reference over integer ticks [0, horizon) plus an unbounded tail.
class DenseModel {
 public:
  DenseModel(Time horizon, std::int64_t initial)
      : horizon_(horizon),
        ticks_(static_cast<std::size_t>(horizon), initial),
        tail_(initial) {}

  void add(Time from, Time to, std::int64_t delta) {
    if (from >= to) return;
    for (Time t = from; t < std::min(to, horizon_); ++t)
      ticks_[static_cast<std::size_t>(t)] += delta;
    if (to >= kTimeInfinity) tail_ += delta;
  }

  [[nodiscard]] std::int64_t value_at(Time t) const {
    return t < horizon_ ? ticks_[static_cast<std::size_t>(t)] : tail_;
  }

  [[nodiscard]] std::int64_t min_in(Time from, Time to) const {
    std::int64_t result = value_at(from);
    for (Time t = from; t < std::min(to, horizon_); ++t)
      result = std::min(result, value_at(t));
    if (to > horizon_) result = std::min(result, tail_);
    return result;
  }

  [[nodiscard]] std::int64_t max_in(Time from, Time to) const {
    std::int64_t result = value_at(from);
    for (Time t = from; t < std::min(to, horizon_); ++t)
      result = std::max(result, value_at(t));
    if (to > horizon_) result = std::max(result, tail_);
    return result;
  }

  [[nodiscard]] Time first_below(Time from, Time to,
                                 std::int64_t threshold) const {
    for (Time t = from; t < std::min(to, horizon_); ++t)
      if (value_at(t) < threshold) return t;
    if (to > horizon_ && tail_ < threshold) return std::max(from, horizon_);
    return kTimeInfinity;
  }

  [[nodiscard]] Time first_at_least(Time from, std::int64_t threshold) const {
    for (Time t = from; t < horizon_; ++t)
      if (value_at(t) >= threshold) return t;
    if (tail_ >= threshold) return std::max(from, horizon_);
    return kTimeInfinity;
  }

  [[nodiscard]] std::int64_t integral(Time from, Time to) const {
    std::int64_t area = 0;
    for (Time t = from; t < to; ++t) area += value_at(t);
    return area;
  }

 private:
  Time horizon_;
  std::vector<std::int64_t> ticks_;
  std::int64_t tail_;
};

// Segment-walk reference for time_to_accumulate: replays the documented
// positive-rate accumulation over the public segment list, independent of
// the sum-augmented index (and of the hybrid scan/descent dispatch).
Time ref_time_to_accumulate(const StepProfile& profile, Time from,
                            std::int64_t target) {
  if (target == 0) return from;
  std::int64_t remaining = target;
  for (const auto& segment : profile.segments()) {
    if (segment.end <= from) continue;
    const Time seg_start = std::max(segment.start, from);
    const std::int64_t rate = segment.value;
    if (rate > 0) {
      const Time needed = (remaining + rate - 1) / rate;
      if (segment.end >= kTimeInfinity || needed <= segment.end - seg_start)
        return needed >= kTimeInfinity - seg_start ? kTimeInfinity
                                                  : seg_start + needed;
      remaining -= rate * (segment.end - seg_start);
    }
  }
  return kTimeInfinity;
}

// ---------------------------------------------------------------------------
// StepProfile at index scale.
// ---------------------------------------------------------------------------

TEST(PropIndexedProfile, WideProfilesMatchDenseModelThroughIncrementalIndex) {
  constexpr Time kHorizon = 4096;
  Prng prng(20260726);
  for (int round = 0; round < 8; ++round) {
    const std::int64_t initial = prng.uniform_int(0, 8);
    StepProfile profile(initial);
    DenseModel model(kHorizon, initial);
    for (int op = 0; op < 420; ++op) {
      // Mutation: mostly bounded windows, occasionally unbounded.
      Time a = prng.uniform_int(0, kHorizon - 1);
      Time b = prng.chance(0.05) ? kTimeInfinity
                                 : prng.uniform_int(1, kHorizon);
      if (b != kTimeInfinity && a > b) std::swap(a, b);
      if (a == b) b = a + 1;
      const std::int64_t delta = prng.uniform_int(-3, 3);
      profile.add(a, b, delta);
      model.add(a, b, delta);

      // One wide query (spans hundreds of segments -> tree descent) and one
      // narrow query (bounded scan) per mutation, so every intermediate
      // index state is checked.
      {
        const Time f = prng.uniform_int(0, kHorizon / 4);
        const Time t = prng.uniform_int(3 * kHorizon / 4, kHorizon + 64);
        ASSERT_EQ(profile.min_in(f, t), model.min_in(f, t))
            << "round " << round << " op " << op;
        ASSERT_EQ(profile.max_in(f, t), model.max_in(f, t));
        const std::int64_t threshold = prng.uniform_int(-2, 10);
        ASSERT_EQ(profile.first_below(f, t, threshold),
                  model.first_below(f, t, threshold))
            << "round " << round << " op " << op << " thr " << threshold;
        ASSERT_EQ(profile.first_at_least(f, threshold),
                  model.first_at_least(f, threshold));
        // Sum-augmented paths: wide integral = tree range-sum with scanned
        // boundary leaves; time_to_accumulate = positive-rate descent
        // (values here go negative, exercising the expand-on-negative
        // branch alongside the O(log s) skips).
        ASSERT_EQ(profile.integral(f, t), model.integral(f, t))
            << "round " << round << " op " << op;
        const std::int64_t target = prng.uniform_int(0, 4000);
        ASSERT_EQ(profile.time_to_accumulate(f, target),
                  ref_time_to_accumulate(profile, f, target))
            << "round " << round << " op " << op << " target " << target;
      }
      {
        const Time f = prng.uniform_int(0, kHorizon - 2);
        const Time t = f + prng.uniform_int(1, 64);
        ASSERT_EQ(profile.min_in(f, t), model.min_in(f, t));
        const std::int64_t threshold = prng.uniform_int(-2, 10);
        ASSERT_EQ(profile.first_below(f, t, threshold),
                  model.first_below(f, t, threshold));
        ASSERT_EQ(profile.integral(f, t), model.integral(f, t));
      }
    }
    ASSERT_GT(profile.segment_count(), 256u)
        << "fuzz profile too small to exercise the index";
    ASSERT_NO_FATAL_FAILURE(ExpectCanonical(profile));
    for (Time t = 0; t <= kHorizon + 2; ++t)
      ASSERT_EQ(profile.value_at(t), model.value_at(t)) << "at t=" << t;
  }
}

TEST(PropIndexedProfile, MinMaxInUnboundedWindowsMatchOnIndexedProfiles) {
  constexpr Time kHorizon = 4096;
  Prng prng(99);
  StepProfile profile(5);
  DenseModel model(kHorizon, 5);
  for (int op = 0; op < 600; ++op) {
    const Time a = prng.uniform_int(0, kHorizon - 2);
    // Clamp to the horizon: the dense model cannot track mass landing in
    // (kHorizon, kTimeInfinity).
    const Time b = std::min(a + prng.uniform_int(1, 32), kHorizon);
    const std::int64_t delta = prng.uniform_int(-2, 2);
    profile.add(a, b, delta);
    model.add(a, b, delta);
  }
  ASSERT_GT(profile.segment_count(), 256u);
  for (int query = 0; query < 200; ++query) {
    const Time f = prng.uniform_int(0, kHorizon);
    ASSERT_EQ(profile.min_in(f, kTimeInfinity), model.min_in(f, kTimeInfinity));
    ASSERT_EQ(profile.max_in(f, kTimeInfinity), model.max_in(f, kTimeInfinity));
    const std::int64_t threshold = prng.uniform_int(-2, 10);
    ASSERT_EQ(profile.first_below(f, kTimeInfinity, threshold),
              model.first_below(f, kTimeInfinity, threshold));
  }
}

TEST(PropIndexedProfile, FirstAtLeastInsideLastSnapshotLeafWithLongTail) {
  // Regression: with a valid index, query from a point strictly inside the
  // *last* snapshot leaf while more than kIndexedLeafCutoff real segments
  // follow it (incremental adds split far beyond the last snapshot
  // breakpoint). The first implementation read index_.times[lo_leaf + 1]
  // one past the end here (caught by ASan); the clipped scan must instead
  // treat the last leaf as unbounded.
  StepProfile profile(1000);
  // ~600 segments in [0, 6000] -> rebuild budget of ~600 incremental adds.
  for (Time t = 0; t < 6000; t += 10) profile.add(t, t + 5, 1 + (t / 10) % 3);
  // Build the index with a wide query.
  (void)profile.min_in(0, kTimeInfinity);
  // ~580 incremental adds entirely inside the last snapshot leaf
  // [6000, +inf): each is a boundary-partial update, staying within budget,
  // so the index remains valid while the tail grows far beyond the snapshot.
  for (Time t = 6100; t < 12000; t += 10) profile.add(t, t + 5, (t / 10) % 5);
  // The only capacity >= 1006 in the tail sits at t = 11990..11995
  // (1000 + 4 is the max of the periodic bumps; add a distinct spike).
  profile.add(11000, 11001, 500);
  EXPECT_EQ(profile.first_at_least(6050, 1400), 11000);
  EXPECT_EQ(profile.first_at_least(6050, 2000), kTimeInfinity);
  // Differential cross-check against a brute scan over the segment list.
  const auto segments = profile.segments();
  for (const std::int64_t threshold : {1001, 1003, 1004, 1400, 1501}) {
    Time expected = kTimeInfinity;
    for (const auto& segment : segments) {
      if (segment.end <= 6050 || segment.value < threshold) continue;
      expected = std::max<Time>(segment.start, 6050);
      break;
    }
    EXPECT_EQ(profile.first_at_least(6050, threshold), expected)
        << "threshold=" << threshold;
  }
}

TEST(PropIndexedProfile, TimeToAccumulateClampsThroughTheIndexedDescent) {
  // The kTimeInfinity clamp lived only in the linear walk before the sum
  // augmentation; this pins it on the tree path: several hundred segments
  // force the descent, and the rate-1 tail makes near-ceiling targets land
  // "past any horizon".
  StepProfile profile(0);
  for (Time t = 0; t < 4000; t += 10) profile.add(t, t + 5, 1 + (t / 10) % 3);
  profile.add(4000, kTimeInfinity, 1);
  (void)profile.min_in(0, kTimeInfinity);  // build the index
  ASSERT_GT(profile.segment_count(), 256u);

  // Finite crossing just past the fragmented prefix, through descent + tail.
  const std::int64_t prefix_area = profile.integral(0, 4000);
  EXPECT_EQ(profile.time_to_accumulate(0, prefix_area + 7), 4007);
  // Near-ceiling target over the rate-1 tail: clamps instead of overflowing.
  EXPECT_EQ(profile.time_to_accumulate(
                0, std::numeric_limits<std::int64_t>::max()),
            kTimeInfinity);
  // Exactly reaching the horizon is "never"; one tick earlier is finite.
  EXPECT_EQ(profile.time_to_accumulate(0, prefix_area + (kTimeInfinity - 4000)),
            kTimeInfinity);
  EXPECT_EQ(
      profile.time_to_accumulate(0, prefix_area + (kTimeInfinity - 4001)),
      kTimeInfinity - 1);
  // Cross-check both answers against the segment-walk reference.
  for (const std::int64_t target : {std::int64_t{1}, prefix_area,
                                    prefix_area + 12345}) {
    EXPECT_EQ(profile.time_to_accumulate(3, target),
              ref_time_to_accumulate(profile, 3, target))
        << "target=" << target;
  }
}

TEST(PropIndexedProfile, IntegralOverflowStillThrowsOnIndexedProfiles) {
  // Wide windows go through the 128-bit range sum; results that do not fit
  // int64 must still surface as std::overflow_error, profile intact.
  StepProfile profile(1'000'000'000'000ll);  // 1e12 per tick
  for (Time t = 0; t < 4000; t += 10) profile.add(t, t + 5, (t / 10) % 7);
  (void)profile.min_in(0, kTimeInfinity);
  ASSERT_GT(profile.segment_count(), 256u);
  std::int64_t expected = 0;
  for (const auto& segment : profile.segments_in(0, 4000))
    expected += segment.value * (segment.end - segment.start);
  EXPECT_EQ(profile.integral(0, 4000), expected);
  EXPECT_THROW((void)profile.integral(0, kTimeInfinity - 1),
               std::overflow_error);
  ASSERT_NO_FATAL_FAILURE(ExpectCanonical(profile));
}

// ---------------------------------------------------------------------------
// add(): strong exception guarantee (the uncommit canonical-form fix).
// ---------------------------------------------------------------------------

TEST(PropIndexedProfile, OverflowMidWindowLeavesProfileUntouchedAndCanonical) {
  constexpr std::int64_t kHuge = std::numeric_limits<std::int64_t>::max() - 2;
  StepProfile profile(0);
  profile.add(10, 20, 5);
  profile.add(20, 30, kHuge);
  const StepProfile snapshot = profile;
  // [20, 30) overflows; [0, 10) and [10, 20) were affected first. The seed
  // implementation applied partial deltas and left the split at t=30
  // unmerged; the strong guarantee requires a perfect rollback-free abort.
  EXPECT_THROW(profile.add(0, 40, 10), std::overflow_error);
  EXPECT_EQ(profile, snapshot);
  ASSERT_NO_FATAL_FAILURE(ExpectCanonical(profile));
  // The profile still answers queries correctly afterwards.
  EXPECT_EQ(profile.value_at(15), 5);
  EXPECT_EQ(profile.value_at(25), kHuge);
  EXPECT_EQ(profile.value_at(35), 0);
}

// ---------------------------------------------------------------------------
// FreeProfile differential fuzz on fragmented (indexed) capacity profiles.
// ---------------------------------------------------------------------------

TEST(PropIndexedProfile, FreeProfileOpsMatchDenseModelAndKeepCanonicalForm) {
  constexpr Time kHorizon = 512;    // reservations live here
  constexpr Time kModelSpan = 8192; // commits may stack far beyond kHorizon
  Prng prng(4242);
  for (int round = 0; round < 25; ++round) {
    const ProcCount m = prng.uniform_int(8, 48);
    StepProfile capacity(m);
    DenseModel model(kModelSpan, m);
    const int carves = static_cast<int>(prng.uniform_int(200, 320));
    for (int i = 0; i < carves; ++i) {
      Time a = prng.uniform_int(0, kHorizon - 1);
      Time b = a + prng.uniform_int(1, 24);
      b = std::min(b, kHorizon);
      const std::int64_t room = capacity.min_in(a, b);
      if (room <= 0) continue;
      const std::int64_t carve = prng.uniform_int(1, room);
      capacity.add(a, b, -carve);
      model.add(a, b, -carve);
    }
    FreeProfile free(capacity);

    struct Placed {
      Time t;
      ProcCount q;
      Time p;
      FreeProfile::CommitToken token;
    };
    std::vector<Placed> live;  // open tentative commits, oldest first
    for (int op = 0; op < 40; ++op) {
      const double roll = prng.uniform_real();
      if (roll < 0.5) {
        // Place a job at its earliest fit; differential + lemma checks.
        const ProcCount q = prng.uniform_int(1, m);
        const Time p = prng.chance(0.1) ? prng.uniform_int(64, 128)
                                        : prng.uniform_int(1, 24);
        const Time t0 = prng.uniform_int(0, kHorizon);
        const Time t = free.earliest_fit(t0, q, p);

        // Differential oracle: brute-force earliest fit over integer starts
        // (breakpoints are integral, so integer starts are exhaustive).
        Time brute = kTimeInfinity;
        for (Time s = t0; s + p < kModelSpan; ++s) {
          if (model.min_in(s, s + p) >= q) {
            brute = s;
            break;
          }
        }
        ASSERT_EQ(t, brute) << "t0=" << t0 << " q=" << q << " p=" << p;
        ASSERT_LT(t + p, kModelSpan) << "fuzz outgrew the dense model";
        // Candidate-start lemma on the indexed path.
        ASSERT_TRUE(t == t0 ||
                    free.profile().value_at(t) >
                        free.profile().value_at(t - 1))
            << "earliest_fit returned neither t0 nor a capacity-increase "
               "breakpoint (t0="
            << t0 << " t=" << t << ")";
        ASSERT_TRUE(free.fits_at(t, q, p));

        live.push_back(Placed{t, q, p, free.commit_tentative(t, q, p)});
        model.add(t, t + p, -q);
      } else if (roll < 0.75 && !live.empty()) {
        // Revoke the newest open commit (undo is LIFO by contract).
        Placed job = std::move(live.back());
        live.pop_back();
        free.rollback(std::move(job.token));
        model.add(job.t, job.t + job.p, job.q);
      } else {
        // Pure queries.
        const Time t = prng.uniform_int(0, kHorizon);
        const ProcCount q = prng.uniform_int(1, m);
        const Time p = prng.uniform_int(1, 64);
        ASSERT_EQ(free.fits_at(t, q, p), model.min_in(t, t + p) >= q);
        ASSERT_EQ(free.capacity_at(t), model.value_at(t));
        const Time f = prng.uniform_int(0, kHorizon / 2);
        const Time to = prng.uniform_int(kHorizon, 2 * kHorizon);
        ASSERT_EQ(free.profile().first_below(f, to, q),
                  model.first_below(f, to, q));
      }
      ASSERT_NO_FATAL_FAILURE(ExpectCanonical(free.profile()));
      ASSERT_GE(free.profile().min_value(), 0);
    }

    // Unwinding every open commit newest-first drains back to the starting
    // profile bit-identically.
    while (!live.empty()) {
      Placed job = std::move(live.back());
      live.pop_back();
      free.rollback(std::move(job.token));
    }
    ASSERT_EQ(free.profile(), capacity);
  }
}

// ---------------------------------------------------------------------------
// Undo log: recorded add -> rollback differential fuzz vs a never-touched
// twin (segments AND observable index answers must come back bit-identical).
// ---------------------------------------------------------------------------

TEST(PropIndexedProfile, RecordedAddRollbackMatchesNeverTouchedTwin) {
  constexpr Time kHorizon = 4096;
  Prng prng(20260727);
  for (int round = 0; round < 6; ++round) {
    const std::int64_t initial = prng.uniform_int(4, 12);
    StepProfile subject(initial);
    StepProfile twin(initial);
    DenseModel model(kHorizon, initial);
    // Fragment both identically; the twin never sees a recorded add.
    for (int i = 0; i < 500; ++i) {
      const Time a = prng.uniform_int(0, kHorizon - 2);
      const Time b = a + prng.uniform_int(1, 24);
      const std::int64_t delta = prng.uniform_int(-2, 3);
      subject.add(a, b, delta);
      twin.add(a, b, delta);
      model.add(a, b, delta);
    }
    ASSERT_GT(subject.segment_count(), 256u);
    // Build both indexes before the probe episodes begin.
    ASSERT_EQ(subject.min_in(0, kTimeInfinity), twin.min_in(0, kTimeInfinity));

    const auto expect_observably_identical = [&](int episode) {
      ASSERT_EQ(subject, twin) << "segments diverged, episode " << episode;
      for (int query = 0; query < 6; ++query) {
        const Time f = prng.uniform_int(0, kHorizon / 2);
        const Time t = prng.chance(0.25)
                           ? kTimeInfinity
                           : prng.uniform_int(3 * kHorizon / 4, kHorizon + 64);
        ASSERT_EQ(subject.min_in(f, t), twin.min_in(f, t));
        ASSERT_EQ(subject.max_in(f, t), twin.max_in(f, t));
        const std::int64_t threshold = prng.uniform_int(-2, 14);
        ASSERT_EQ(subject.first_below(f, t, threshold),
                  twin.first_below(f, t, threshold));
        ASSERT_EQ(subject.first_at_least(f, threshold),
                  twin.first_at_least(f, threshold));
        if (t < kTimeInfinity) {
          ASSERT_EQ(subject.integral(f, t), twin.integral(f, t));
        }
        const std::int64_t target = prng.uniform_int(0, 4000);
        ASSERT_EQ(subject.time_to_accumulate(f, target),
                  twin.time_to_accumulate(f, target));
      }
    };

    for (int episode = 0; episode < 60; ++episode) {
      // Stack up to 4 recorded adds (nested, the backtracking shape),
      // querying the subject against the dense model while they are live,
      // then unwind newest-first.
      struct Recorded {
        Time a;
        Time b;
        std::int64_t delta;
        StepProfile::Undo undo;
      };
      std::vector<Recorded> stack;
      const int depth = static_cast<int>(prng.uniform_int(1, 4));
      for (int level = 0; level < depth; ++level) {
        Recorded rec;
        rec.a = prng.uniform_int(0, kHorizon - 2);
        // Occasionally an unbounded window: the kTimeInfinity clamp of the
        // right edge must survive recording and rollback.
        rec.b = prng.chance(0.15) ? kTimeInfinity
                                  : rec.a + prng.uniform_int(1, 64);
        rec.delta = prng.uniform_int(-3, 3);
        subject.add_recorded(rec.a, rec.b, rec.delta, rec.undo);
        model.add(rec.a, rec.b, rec.delta);
        ASSERT_EQ(rec.undo.live(), rec.delta != 0);
        stack.push_back(std::move(rec));

        // Wide query: exercises (and mid-sequence rebuilds, if a drop ever
        // happened) the index while tentative state is live.
        const Time f = prng.uniform_int(0, kHorizon / 2);
        const Time t = prng.uniform_int(3 * kHorizon / 4, kHorizon + 64);
        ASSERT_EQ(subject.min_in(f, t), model.min_in(f, t))
            << "round " << round << " episode " << episode;
        const std::int64_t threshold = prng.uniform_int(-2, 14);
        ASSERT_EQ(subject.first_below(f, t, threshold),
                  model.first_below(f, t, threshold));
      }
      while (!stack.empty()) {
        Recorded rec = std::move(stack.back());
        stack.pop_back();
        if (rec.undo.live()) subject.rollback(rec.undo);
        model.add(rec.a, rec.b, -rec.delta);
        ASSERT_FALSE(rec.undo.live());
      }
      ASSERT_NO_FATAL_FAILURE(ExpectCanonical(subject));
      if (episode % 10 == 0) {
        ASSERT_NO_FATAL_FAILURE(expect_observably_identical(episode));
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_observably_identical(-1));
    // The whole fuzz ran on warm snapshots: recorded add/rollback pairs are
    // budget-neutral, so the subject rebuilt its index no more often than
    // the untouched twin built its one.
    EXPECT_LE(subject.index_build_count(), twin.index_build_count() + 1);
  }
}

TEST(PropIndexedProfile, RollbackOutOfOrderTripsOnOverlapOnly) {
  StepProfile profile(10);
  for (Time t = 0; t < 2000; t += 10) profile.add(t, t + 5, (t / 10) % 4);

  // Non-overlapping recorded adds may unwind in any order.
  const StepProfile base = profile;
  StepProfile::Undo left;
  StepProfile::Undo right;
  profile.add_recorded(100, 200, -3, left);
  profile.add_recorded(1000, 1100, -2, right);
  profile.rollback(left);
  profile.rollback(right);
  EXPECT_EQ(profile, base);

  // Overlapping ones must unwind newest-first; reversing the older one
  // while the newer is live would corrupt the function, so it trips.
  StepProfile::Undo older;
  StepProfile::Undo newer;
  profile.add_recorded(100, 300, -1, older);
  profile.add_recorded(250, 400, -1, newer);
  EXPECT_THROW(profile.rollback(older), std::logic_error);
  // A failed rollback consumes nothing and mutates nothing: unwind the
  // blocking mutation and the older record works again.
  EXPECT_TRUE(older.live());
  profile.rollback(newer);
  profile.rollback(older);
  EXPECT_EQ(profile, base);

  // A dead record cannot roll back.
  EXPECT_THROW(profile.rollback(newer), std::logic_error);
}

TEST(PropIndexedProfile, RollbackTripsOnBoundaryInterferenceInsteadOfCorrupting) {
  // The checked state of a record is slightly wider than its mutation
  // window: the closed region [window_lo, to] plus the left neighbour's
  // value. Window-disjoint later mutations that touch only those
  // boundaries must trip the rollback loudly -- the alternative is a
  // silently non-canonical (or wrong) splice.

  {
    // A later add whose right edge coalesces across the record's
    // window_lo boundary: without the recorded-left-value anchor the
    // replay would accept and splice back an adjacent-equal pair.
    StepProfile profile(5);
    profile.add(50, kTimeInfinity, 4);   // {0:5},{50:9}
    profile.add(100, kTimeInfinity, -2); // {0:5},{50:9},{100:7}
    StepProfile::Undo undo;
    profile.add_recorded(150, 200, -2, undo);  // window_lo = 100
    profile.add(50, 100, -2);  // {50:7} now coalesces with {100:7}
    EXPECT_THROW(profile.rollback(undo), std::logic_error);
    EXPECT_TRUE(undo.live());
    // Unwind the interference and the record works again, canonically.
    profile.add(50, 100, 2);
    profile.rollback(undo);
    EXPECT_EQ(profile.value_at(160), 7);
    EXPECT_EQ(profile.segment_count(), 3u);
  }

  {
    // A later add starting exactly at the record's `to`: it shifts the
    // region's trailing piece, so the record is blocked until it unwinds.
    StepProfile profile(9);
    StepProfile::Undo undo;
    profile.add_recorded(150, 200, -2, undo);
    profile.add(200, 300, -1);
    EXPECT_THROW(profile.rollback(undo), std::logic_error);
    EXPECT_TRUE(undo.live());
    profile.add(200, 300, 1);
    profile.rollback(undo);
    EXPECT_EQ(profile, StepProfile(9));
  }

  {
    // A later add ending at the record's window_lo that changes the left
    // neighbour to the region's original leading value: splicing would
    // recreate an adjacent-equal pair, so it must trip.
    StepProfile profile(5);
    profile.add(100, kTimeInfinity, -2);  // {0:5},{100:3}
    StepProfile::Undo undo;
    profile.add_recorded(100, 200, -1, undo);  // {0:5},{100:2},{200:3}
    profile.add(0, 100, -2);                   // left neighbour 5 -> 3
    EXPECT_THROW(profile.rollback(undo), std::logic_error);
    profile.add(0, 100, 2);
    profile.rollback(undo);
    EXPECT_EQ(profile.value_at(150), 3);
  }
}

}  // namespace
}  // namespace resched
