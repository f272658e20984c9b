// SegStore, the two-ended SoA/SBO segment store under StepProfile.
//
// A differential fuzz runs random edit sequences against a plain
// std::vector model -- inserts, erases and erase-then-insert splices that
// grow or shrink at either end, push_back, assign_range, clear, reserve, and copies/moves of
// stores whose live slots do not start at the block's first slot -- on
// inline stores, heap stores and across the inline -> heap spill. The pins
// below it fix the store's two contracts (a store of at most
// kInlineSegments slots never allocates; a warm heap store cycling prefix
// erases with back inserts stops allocating and keeps its capacity within
// a fixed multiple of its high-water size; a store up to three quarters
// full re-centres in place instead of growing) and the mechanism the store
// exists for, counted by moved_slots(): an edit shifts the shorter side of
// its edit point, so an add near either end of a ~4k-segment profile moves
// a few slots and one in the middle at most half the store.
#include "core/seg_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/arena.hpp"
#include "core/step_profile.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

using Model = std::vector<std::pair<Time, std::int64_t>>;

void expect_matches(const SegStore& store, const Model& model) {
  ASSERT_EQ(store.size(), model.size());
  ASSERT_EQ(store.empty(), model.empty());
  ASSERT_GE(store.capacity(), store.size());
  const Time* times = store.times_data();
  const std::int64_t* values = store.values_data();
  for (std::size_t i = 0; i < model.size(); ++i) {
    ASSERT_EQ(store.start(i), model[i].first) << "slot " << i;
    ASSERT_EQ(store.value(i), model[i].second) << "slot " << i;
    ASSERT_EQ(times[i], model[i].first) << "slot " << i;
    ASSERT_EQ(values[i], model[i].second) << "slot " << i;
  }
  if (!model.empty()) {
    EXPECT_EQ(store.back_value(), model.back().second);
  }
}

SegStore store_of(const Model& model) {
  SegStore store;
  for (const auto& [t, v] : model) store.push_back(t, v);
  return store;
}

// Random slot contents; the store never interprets them.
std::pair<Time, std::int64_t> random_slot(Prng& prng) {
  return {prng.uniform_int(0, 1'000'000), prng.uniform_int(-1000, 1000)};
}

std::size_t pick(Prng& prng, std::size_t hi) {  // uniform in [0, hi]
  return static_cast<std::size_t>(
      prng.uniform_int(0, static_cast<std::int64_t>(hi)));
}

// A position biased towards the ends: a third of the draws land within 3
// slots of the front, a third within 3 of the back, the rest anywhere.
std::size_t biased_pos(Prng& prng, std::size_t size) {
  const std::size_t near = std::min<std::size_t>(size, 3);
  switch (prng.uniform_int(0, 2)) {
    case 0: return pick(prng, near);
    case 1: return size - pick(prng, near);
    default: return pick(prng, size);
  }
}

// One random edit applied to both the store and the model. `limit` caps
// the model size; operations that would exceed it are skipped.
void random_edit(Prng& prng, SegStore& store, Model& model,
                 std::size_t limit) {
  const std::size_t n = model.size();
  switch (prng.uniform_int(0, 11)) {
    case 0:
    case 1: {  // insert
      if (n >= limit) return;
      const std::size_t pos = biased_pos(prng, n);
      const auto slot = random_slot(prng);
      store.insert(pos, slot.first, slot.second);
      model.insert(model.begin() + static_cast<std::ptrdiff_t>(pos), slot);
      return;
    }
    case 2: {  // erase one
      if (n == 0) return;
      const std::size_t pos = std::min(biased_pos(prng, n), n - 1);
      store.erase(pos);
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(pos));
      return;
    }
    case 3:
    case 4: {  // erase a range, prefix and suffix ranges included
      const std::size_t lo = biased_pos(prng, n);
      const std::size_t hi = lo + pick(prng, std::min<std::size_t>(n - lo, 40));
      store.erase(lo, hi);
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(lo),
                  model.begin() + static_cast<std::ptrdiff_t>(hi));
      return;
    }
    case 5:
    case 6: {  // splice [lo, hi) -> k slots, growing or shrinking
      const std::size_t lo = biased_pos(prng, n);
      const std::size_t hi = lo + pick(prng, std::min<std::size_t>(n - lo, 12));
      std::size_t k = pick(prng, prng.uniform_int(0, 3) == 0 ? 30 : 6);
      if (n - (hi - lo) + k > limit) k = hi - lo;
      Model patch;
      for (std::size_t i = 0; i < k; ++i) patch.push_back(random_slot(prng));
      store.erase(lo, hi);
      for (std::size_t i = 0; i < k; ++i)
        store.insert(lo + i, patch[i].first, patch[i].second);
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(lo),
                  model.begin() + static_cast<std::ptrdiff_t>(hi));
      model.insert(model.begin() + static_cast<std::ptrdiff_t>(lo),
                   patch.begin(), patch.end());
      return;
    }
    case 7: {  // push_back
      if (n >= limit) return;
      const auto slot = random_slot(prng);
      store.push_back(slot.first, slot.second);
      model.push_back(slot);
      return;
    }
    case 8: {  // in-place slot writes
      if (n == 0) return;
      const std::size_t i = pick(prng, n - 1);
      const auto slot = random_slot(prng);
      store.set_start(i, slot.first);
      store.set_value(i, slot.second);
      store.add_value(i, 3);
      model[i] = {slot.first, slot.second + 3};
      return;
    }
    case 9: {  // assign_range from a copy of a slice of itself
      const SegStore snapshot = store;
      const std::size_t lo = pick(prng, n);
      const std::size_t hi = lo + pick(prng, n - lo);
      store.assign_range(snapshot, lo, hi);
      model = Model(model.begin() + static_cast<std::ptrdiff_t>(lo),
                    model.begin() + static_cast<std::ptrdiff_t>(hi));
      return;
    }
    case 10: {  // copy / move round trips keep the contents
      SegStore copy(store);
      expect_matches(copy, model);
      SegStore assigned;
      assigned.push_back(1, 1);
      assigned = copy;
      expect_matches(assigned, model);
      SegStore moved(std::move(copy));
      expect_matches(moved, model);
      EXPECT_EQ(copy.size(), 0u);  // NOLINT(bugprone-use-after-move)
      store = std::move(moved);
      return;
    }
    default: {  // reserve, and rarely clear
      if (prng.uniform_int(0, 9) == 0) {
        store.clear();
        model.clear();
      } else {
        store.reserve(std::min(limit, n + pick(prng, 20)));
      }
      return;
    }
  }
}

void run_fuzz(std::uint64_t seed, std::size_t limit, int steps) {
  Prng prng(seed);
  SegStore store;
  Model model;
  for (int step = 0; step < steps; ++step) {
    random_edit(prng, store, model, limit);
    ASSERT_NO_FATAL_FAILURE(expect_matches(store, model))
        << "seed " << seed << " step " << step;
    if (step % 64 == 0) {
      EXPECT_TRUE(store == store_of(model));
      // Sorted contents: the binary search agrees with the model's.
      Model sorted = model;
      std::sort(sorted.begin(), sorted.end());
      // Built by front inserts, so its live slots sit off the block start.
      SegStore ordered;
      for (auto it = sorted.rbegin(); it != sorted.rend(); ++it)
        ordered.insert(0, it->first, it->second);
      const Time probe = prng.uniform_int(0, 1'000'000);
      const auto rkey = [](Time t, const auto& slot) { return t < slot.first; };
      EXPECT_EQ(ordered.upper_bound_start(probe),
                static_cast<std::size_t>(
                    std::upper_bound(sorted.begin(), sorted.end(), probe, rkey) -
                    sorted.begin()));
    }
  }
}

TEST(SegStoreFuzz, InlineStoresMatchTheModel) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed)
    ASSERT_NO_FATAL_FAILURE(run_fuzz(seed, SegStore::kInlineSegments, 600));
}

TEST(SegStoreFuzz, HeapStoresAndSpillsMatchTheModel) {
  // Limits just above the inline capacity cross the spill boundary over
  // and over (clear/assign_range drop back to few slots on a heap block);
  // the larger ones exercise re-centring and growth at both ends.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (std::size_t limit : {std::size_t{12}, std::size_t{64},
                              std::size_t{400}})
      ASSERT_NO_FATAL_FAILURE(run_fuzz(seed * 101 + limit, limit, 1500));
  }
}

TEST(SegStore, CopiesAndMovesOfAnOffsetStoreKeepContentsAndCounters) {
  SegStore store;
  Model model;
  for (Time t = 0; t < 100; ++t) {
    store.push_back(t, t * 3);
    model.emplace_back(t, t * 3);
  }
  store.erase(0, 37);  // prefix erase: live slots no longer start the block
  model.erase(model.begin(), model.begin() + 37);
  store.insert(1, 500, 5);
  model.insert(model.begin() + 1, {500, 5});
  ASSERT_NO_FATAL_FAILURE(expect_matches(store, model));
  const std::uint64_t allocs = store.alloc_count();
  const std::uint64_t moved = store.moved_slots();
  EXPECT_GT(moved, 0u);

  const SegStore copy(store);
  expect_matches(copy, model);
  EXPECT_EQ(copy.moved_slots(), 0u) << "copies start counting at zero";
  EXPECT_EQ(copy.alloc_count(), 1u);

  SegStore moved_to(std::move(store));
  expect_matches(moved_to, model);
  EXPECT_EQ(moved_to.moved_slots(), moved) << "moves carry the count";
  EXPECT_EQ(moved_to.alloc_count(), allocs);

  // The moved-from store is an empty inline store, usable again.
  EXPECT_EQ(store.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(store.capacity(), SegStore::kInlineSegments);
  store.push_back(7, 7);
  expect_matches(store, Model{{7, 7}});

  // Edits on the copy and the moved store stay independent.
  moved_to.erase(0);
  model.erase(model.begin());
  expect_matches(moved_to, model);
  EXPECT_EQ(copy.size(), model.size() + 1);
}

TEST(SegStore, StoresWithinInlineCapacityNeverAllocate) {
  // The SBO contract survives the two-ended layout: whatever the edit
  // pattern, a store that never holds more than kInlineSegments slots
  // shifts either side or re-centres inside its buffer instead of
  // spilling. A spill would show as a heap capacity right after the edit
  // (the fuzz's copy/move round trips reset alloc_count, so the capacity
  // is checked after every step).
  Prng prng(7);
  SegStore store;
  Model model;
  for (int step = 0; step < 5000; ++step) {
    random_edit(prng, store, model, SegStore::kInlineSegments);
    ASSERT_EQ(store.capacity(), SegStore::kInlineSegments) << "step " << step;
    ASSERT_EQ(store.alloc_count(), 0u) << "step " << step;
  }
  // The process-wide counter (which also sees the model's vectors above)
  // stays flat over a front-heavy edit loop and over two inserts whose
  // growth fits neither side's free slots alone.
  const std::uint64_t before = alloc_count();
  SegStore front_heavy;
  for (int round = 0; round < 200; ++round) {
    while (front_heavy.size() < SegStore::kInlineSegments)
      front_heavy.insert(0, round, round);
    front_heavy.erase(front_heavy.size() - 3, front_heavy.size());
  }
  SegStore six;
  for (Time t = 0; t < 6; ++t) six.push_back(t, t);
  SegStore centred;
  centred.assign_range(six, 0, 6);  // one free slot on each side
  centred.insert(3, 100, 100);
  centred.insert(4, 101, 101);
  EXPECT_EQ(alloc_count(), before);
  EXPECT_EQ(front_heavy.alloc_count(), 0u);
  EXPECT_EQ(centred.alloc_count(), 0u);
  expect_matches(centred, Model{{0, 0}, {1, 1}, {2, 2}, {100, 100},
                                {101, 101}, {3, 3}, {4, 4}, {5, 5}});
}

TEST(SegStore, PrefixErasesWithBackInsertsStopAllocatingAndKeepCapacity) {
  // The history-compaction pattern of the resident service: the profile
  // drops its past (a prefix erase, which only advances the front) and
  // commits new work near its back. Without the re-centre rule the live
  // slots drift to the block's back and every later back insert shifts
  // the whole store or grows the block.
  constexpr std::size_t kHigh = 1000;
  for (const bool insert_near_back : {false, true}) {
    SegStore store;
    for (std::size_t i = 0; i < kHigh; ++i)
      store.push_back(static_cast<Time>(i), 1);
    std::size_t warm_allocs = 0;
    std::uint64_t warm_moved = 0;
    constexpr int kWarm = 50;
    constexpr int kCycles = 2000;
    Time next = static_cast<Time>(kHigh);
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      if (cycle == kWarm) {
        warm_allocs = store.alloc_count();
        warm_moved = store.moved_slots();
      }
      store.erase(0, 17);
      for (int k = 0; k < 17; ++k) {
        if (insert_near_back) store.insert(store.size() - 2, next++, 2);
        else store.push_back(next++, 2);
      }
      ASSERT_EQ(store.size(), kHigh);
      ASSERT_LE(store.capacity(), 4 * kHigh) << "cycle " << cycle;
    }
    EXPECT_EQ(store.alloc_count(), warm_allocs)
        << "a warm store must stop allocating";
    // Per inserted slot: at most 2 shifted neighbours plus the amortized
    // re-centre share; the drifting layout moved ~kHigh per insert.
    const double per_insert =
        static_cast<double>(store.moved_slots() - warm_moved) /
        ((kCycles - kWarm) * 17.0);
    EXPECT_LT(per_insert, 8.0);
  }
}

TEST(SegStore, AFullSideReCentresInPlaceUpToThreeQuartersFull) {
  // Room rule: a heap store more than half but at most three quarters full
  // whose shorter side has run out of free slots re-centres inside its own
  // block instead of doubling it. Set up: a 100-slot block with its 70
  // live slots packed against the back (no room after the last slot).
  constexpr std::size_t kCap = 100;
  SegStore store;
  store.reserve(kCap);
  Model model;
  for (std::size_t i = 0; i < kCap; ++i) {
    store.push_back(static_cast<Time>(i), static_cast<std::int64_t>(i));
    model.emplace_back(static_cast<Time>(i), static_cast<std::int64_t>(i));
  }
  store.erase(0, 30);
  model.erase(model.begin(), model.begin() + 30);
  ASSERT_EQ(store.capacity(), kCap);
  const std::uint64_t store_allocs = store.alloc_count();
  const std::uint64_t process_allocs = alloc_count();
  const std::uint64_t moved0 = store.moved_slots();

  store.push_back(1000, 1000);  // 71 of 100 slots: re-centre in place
  model.emplace_back(1000, 1000);
  EXPECT_EQ(store.capacity(), kCap);
  EXPECT_EQ(store.alloc_count(), store_allocs);
  EXPECT_EQ(alloc_count(), process_allocs);
  EXPECT_EQ(store.moved_slots(), moved0 + 70) << "one move of the contents";
  // Centred: (100 - 71) / 2 = 14 free slots before the contents, 15 after,
  // so the next 4 back inserts (up to 75 slots) shift nothing.
  const std::uint64_t moved1 = store.moved_slots();
  for (Time t = 1001; t < 1005; ++t) {
    store.push_back(t, t);
    model.emplace_back(t, t);
  }
  EXPECT_EQ(store.moved_slots(), moved1);
  ASSERT_NO_FATAL_FAILURE(expect_matches(store, model));

  // Past three quarters the block doubles: pack the 75 slots against the
  // back again, then one more back insert (76 of 100) grows the block.
  SegStore packed;
  packed.reserve(kCap);
  for (std::size_t i = 0; i < kCap; ++i)
    packed.push_back(static_cast<Time>(i), 0);
  packed.erase(0, 25);
  const std::uint64_t packed_allocs = packed.alloc_count();
  packed.push_back(1000, 0);
  EXPECT_EQ(packed.capacity(), 2 * kCap);
  EXPECT_EQ(packed.alloc_count(), packed_allocs + 1);
}

// ~4k-segment profile, as in the batch workload's alpha-restricted setting.
StepProfile big_profile() {
  StepProfile profile(1'000'000);
  Prng prng(42);
  for (int i = 0; i < 2200; ++i) {
    const Time start = prng.uniform_int(0, 1'000'000);
    profile.add(start, start + prng.uniform_int(1, 400),
                -prng.uniform_int(1, 3));
  }
  return profile;
}

// Slots moved per add of a short window at `fraction` of the profile's
// span, amortized over add/undo pairs (the undo is the add's inverse, so
// the segment count stays put and the pair splits and coalesces twice).
double moved_per_add(double fraction, std::size_t* segments,
                     std::size_t* shorter_side) {
  StepProfile profile = big_profile();
  *segments = profile.segment_count();
  const Time at = static_cast<Time>(fraction * 1'000'000);
  std::size_t before = 0;
  for (const StepProfile::Segment& seg : profile.segments())
    if (seg.start < at) ++before;
  *shorter_side = std::min(before, *segments - before);
  constexpr int kPairs = 200;
  const std::uint64_t moved0 = profile.moved_slots();
  for (int i = 0; i < kPairs; ++i) {
    // Splits at most twice, and the inverse add coalesces them again.
    profile.add(at + 1, at + 2, 1);
    profile.add(at + 1, at + 2, -1);
  }
  return static_cast<double>(profile.moved_slots() - moved0) / (2 * kPairs);
}

TEST(SegStore, AddsNearEitherEndMoveAFewSlotsAndMiddleAddsAtMostHalf) {
  std::size_t segments = 0;
  std::size_t side = 0;
  for (const double fraction : {0.02, 0.98}) {
    const double moved = moved_per_add(fraction, &segments, &side);
    ASSERT_GT(segments, 3500u);
    // Two splits (or coalesces) per add, each shifting the shorter side of
    // its edit point (both sides here are far longer than kShiftBias); a
    // one-ended store would shift the whole tail, about
    // (1 - fraction) * segments per split.
    EXPECT_LE(moved, 2.0 * static_cast<double>(side + 2))
        << "fraction " << fraction;
    EXPECT_LT(moved, 0.1 * static_cast<double>(segments))
        << "fraction " << fraction;
  }
  const double middle = moved_per_add(0.5, &segments, &side);
  EXPECT_LE(middle, static_cast<double>(segments + 2 * SegStore::kShiftBias) +
                        4.0)
      << "two splits, each moving at most half the store (plus the bias)";
}

TEST(SegStore, CompactBeforeErasesThePrefixWithoutMovingSlots) {
  StepProfile profile = big_profile();
  const std::uint64_t moved0 = profile.moved_slots();
  const std::size_t removed = profile.compact_before(500'000);
  EXPECT_GT(removed, 1000u);
  EXPECT_EQ(profile.moved_slots(), moved0);
}

}  // namespace
}  // namespace resched
