// Wide-profile dense-model differential: StepProfile and the FreeProfile
// built on top of it, on profiles of many hundreds of segments.
//
// Unlike test_prop_step_profile (horizon 96), this suite drives profiles
// with hundreds to thousands of segments and queries windows spanning most
// of them, against a naive dense-array model: long scans, unbounded
// windows, long tails after a fragmented prefix, near-ceiling accumulation
// targets and 128-bit integrals over wide windows.
//
// Also re-asserts the candidate-start lemma of profile_allocator.hpp on
// wide profiles, checks canonical form after every commit/rollback
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
// StepProfile's own scan.
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
// StepProfile at wide scale.
// ---------------------------------------------------------------------------

TEST(PropWideProfile, WideProfilesMatchDenseModelAfterEveryMutation) {
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

      // One wide query (spans hundreds of segments) and one narrow query
      // per mutation, so every intermediate profile state is checked.
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
        // Wide integral and time_to_accumulate (values here go negative:
        // negative-rate stretches must contribute nothing to the
        // accumulation).
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
        << "fuzz profile too small to exercise wide windows";
    ASSERT_NO_FATAL_FAILURE(ExpectCanonical(profile));
    for (Time t = 0; t <= kHorizon + 2; ++t)
      ASSERT_EQ(profile.value_at(t), model.value_at(t)) << "at t=" << t;
  }
}

TEST(PropWideProfile, MinMaxInUnboundedWindowsMatchOnWideProfiles) {
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

TEST(PropWideProfile, FirstAtLeastAfterAFragmentedPrefixWithLongTail) {
  // Query from a point strictly inside a long tail of ~1200 segments that
  // was added after a ~600-segment prefix had already been queried (a
  // query-side cache built from the prefix once read one past its end
  // here, caught by ASan).
  StepProfile profile(1000);
  // ~600 segments in [0, 6000].
  for (Time t = 0; t < 6000; t += 10) profile.add(t, t + 5, 1 + (t / 10) % 3);
  (void)profile.min_in(0, kTimeInfinity);
  // ~580 adds entirely inside [6000, +inf), growing the tail.
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

TEST(PropWideProfile, TimeToAccumulateClampsAfterAFragmentedPrefix) {
  // The kTimeInfinity clamp after several hundred segments: the rate-1
  // tail makes near-ceiling targets land "past any horizon".
  StepProfile profile(0);
  for (Time t = 0; t < 4000; t += 10) profile.add(t, t + 5, 1 + (t / 10) % 3);
  profile.add(4000, kTimeInfinity, 1);
  (void)profile.min_in(0, kTimeInfinity);
  ASSERT_GT(profile.segment_count(), 256u);

  // Finite crossing just past the fragmented prefix, in the tail.
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

TEST(PropWideProfile, IntegralOverflowStillThrowsOnWideProfiles) {
  // Wide windows accumulate in 128 bits; results that do not fit int64
  // must still surface as std::overflow_error, profile intact.
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

TEST(PropWideProfile, OverflowMidWindowLeavesProfileUntouchedAndCanonical) {
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
// FreeProfile differential fuzz on fragmented (wide) capacity profiles.
// ---------------------------------------------------------------------------

TEST(PropWideProfile, FreeProfileOpsMatchDenseModelAndKeepCanonicalForm) {
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
        // Candidate-start lemma on wide profiles.
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
        // Revoke the newest open commit (frames are LIFO by contract).
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

}  // namespace
}  // namespace resched
