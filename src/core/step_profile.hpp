// StepProfile: an integer-valued piecewise-constant function of time on
// [0, +infinity).
//
// This is the single data structure underneath everything in resched:
// unavailability U(t), availability m(t) = m - U(t), schedule usage r(t) and
// the schedulers' free-capacity view all are StepProfiles. It supports point
// queries, range addition, windowed minima, area integrals and breakpoint
// iteration.
//
// Representation: a SegStore -- two parallel flat arrays (starts, values)
// sorted by start with small-buffer inline storage (core/seg_store.hpp); the
// value holds from its start (inclusive) to the next start (exclusive); the
// last segment extends to +infinity. Invariants: the first start is 0, and
// adjacent segments have distinct values (canonical form), so operator==
// means pointwise function equality. The SoA layout keeps the binary
// searches on a contiguous start array and the scan-heavy value walks on a
// contiguous value array; profiles of up to SegStore::kInlineSegments
// segments never touch the heap. The store keeps free slots at both ends
// of its block, and every split or coalesce shifts only the shorter side
// of its edit point: an add near the profile's front (a scheduler
// committing at its clock) or its back moves a few slots, not the whole
// tail; the worst case, an add in the middle, moves half.
//
// Windowed queries (min_in / max_in / first_below / first_at_least) are the
// schedulers' per-placement hot path. Each is one binary search for the
// segment containing `from` followed by a linear scan of the contiguous
// value array: O(log s + segments visited), where a scan stops at the end
// of its window or, for first_below / first_at_least, at the first hit.
// `integral` and `time_to_accumulate` are O(log s + segments in the window)
// the same way. There is deliberately no query index: a segment tree cost
// more to keep current on each add than it saved on the queries the
// schedulers make (BUILDING.md "Removing the segment-tree index"). With no
// lazily cached state, concurrent const reads of one profile from many
// threads are plain reads.
//
// add() provides the strong exception guarantee: it validates every affected
// segment's checked addition before the first structural change, so an
// overflowing add throws with the profile (and its canonical form) intact.
//
// Reverting an add: add(from, to, -delta) exactly reverts add(from, to,
// delta). Range additions commute, so the function becomes the one the
// profile would hold without the pair, and canonical form makes the segments
// bit-identical to a profile that never saw it. FreeProfile's plan frames
// revert their commits this way (profile_allocator.hpp); the profile keeps
// no undo state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/seg_store.hpp"
#include "core/types.hpp"

namespace resched {

class StepProfile {
 public:
  struct Segment {
    Time start;  // inclusive
    Time end;    // exclusive; kTimeInfinity for the last segment
    std::int64_t value;
    friend bool operator==(const Segment&, const Segment&) = default;
  };

  // Constant function with the given value everywhere.
  explicit StepProfile(std::int64_t initial_value = 0);

  // Copies start a new mutation history (version() 0); copy assignment
  // counts as a mutation of the target. Moves carry the version.
  StepProfile(const StepProfile& other) : steps_(other.steps_) {}
  StepProfile& operator=(const StepProfile& other) {
    steps_ = other.steps_;
    ++version_;
    return *this;
  }
  StepProfile(StepProfile&&) noexcept = default;
  StepProfile& operator=(StepProfile&&) noexcept = default;
  ~StepProfile() = default;

  [[nodiscard]] std::int64_t value_at(Time t) const;

  // Adds delta on [from, to); no-op when from >= to. Times must be >= 0.
  // Strong exception guarantee: throws std::overflow_error with the profile
  // unchanged when any affected segment's value would overflow.
  void add(Time from, Time to, std::int64_t delta);

  // Always 0: the profile keeps no query index to build. Kept only so that
  // existing counter readers (perfbench's core.index_builds) still compile.
  [[nodiscard]] static constexpr std::uint64_t index_build_count() noexcept {
    return 0;
  }

  // Heap blocks the segment store has allocated (diagnostic: copies start
  // at zero, moves carry the count; probe loops on a warmed profile must
  // keep this flat). The thread-local resched::alloc_count() sees the same
  // events plus everything else.
  [[nodiscard]] std::uint64_t alloc_count() const noexcept {
    return steps_.alloc_count();
  }

  // Segment slots the store has moved to make or close room for edits
  // (SegStore::moved_slots; same copy/move semantics as alloc_count). The
  // noise-free work counter of the two-ended store: a split near either
  // end of the profile moves a few slots, not the live tail.
  [[nodiscard]] std::uint64_t moved_slots() const noexcept {
    return steps_.moved_slots();
  }

  // Monotone mutation version: incremented by every successful state change
  // (add, compact_before, copy assignment). The O(1)
  // checkpoint primitive of the incremental-replan layer: two equal versions
  // of one live object guarantee no mutation happened in between, so a
  // caller holding a version can tell whether its derived state (plans,
  // deltas, caches) is still current without comparing segments. Copies
  // start at zero (a copy is a new history); moves carry the version.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  // Collapses every segment boundary strictly before t into one leading
  // segment carrying value_at(t); the function on [t, +inf) is unchanged,
  // the function on [0, t) is rewritten to the constant value_at(t). For
  // callers that advance a clock monotonically and never query the past
  // again (the resident service profile): dead history otherwise accumulates
  // one segment per completed job forever. The prefix erase is O(1) in
  // storage: the two-ended store only advances its front. Returns the
  // number of segments removed.
  std::size_t compact_before(Time t);

  // Minimum value over the window [from, to); requires from < to.
  [[nodiscard]] std::int64_t min_in(Time from, Time to) const;
  // Maximum value over the window [from, to); requires from < to.
  [[nodiscard]] std::int64_t max_in(Time from, Time to) const;

  // Earliest t in [from, to) with value_at(t) < threshold, or kTimeInfinity
  // if the window never dips below the threshold. Core query of the
  // earliest-fit search.
  [[nodiscard]] Time first_below(Time from, Time to,
                                 std::int64_t threshold) const;

  // Earliest t >= from with value_at(t) >= threshold, or kTimeInfinity.
  // Lets earliest_fit leap over an entire run of deficient segments in one
  // scan instead of re-probing its window breakpoint by breakpoint.
  [[nodiscard]] Time first_at_least(Time from, std::int64_t threshold) const;

  // Smallest breakpoint strictly greater than t, or kTimeInfinity if the
  // function is constant after t.
  [[nodiscard]] Time next_change_after(Time t) const;

  // Integral of the function over [from, to); throws std::overflow_error
  // when the (exact, 128-bit-accumulated) result does not fit in int64.
  // Requires from <= to and to < kTimeInfinity.
  [[nodiscard]] std::int64_t integral(Time from, Time to) const;

  // Earliest T >= from such that integral(from, T) >= target (target >= 0),
  // where non-positive-rate stretches contribute nothing (the callers'
  // profiles -- capacities, availabilities -- are non-negative, and a
  // work-area target can never be paid off by negative rate). Unreachable
  // targets are reported as kTimeInfinity.
  [[nodiscard]] Time time_to_accumulate(Time from, std::int64_t target) const;

  // True if the function never increases / never decreases over [0, +inf).
  [[nodiscard]] bool is_non_increasing() const noexcept;
  [[nodiscard]] bool is_non_decreasing() const noexcept;

  [[nodiscard]] std::int64_t min_value() const noexcept;
  [[nodiscard]] std::int64_t max_value() const noexcept;
  // Value of the unbounded final segment.
  [[nodiscard]] std::int64_t final_value() const noexcept;
  // Number of maximal constant segments (>= 1).
  [[nodiscard]] std::size_t segment_count() const noexcept;

  // All maximal segments, in order; the last has end == kTimeInfinity.
  [[nodiscard]] std::vector<Segment> segments() const;
  // Segments clipped to [from, to).
  [[nodiscard]] std::vector<Segment> segments_in(Time from, Time to) const;

  // Pointwise combination: this + other, this - other.
  [[nodiscard]] StepProfile plus(const StepProfile& other) const;
  [[nodiscard]] StepProfile minus(const StepProfile& other) const;

  // Pointwise function equality (canonical form makes it structural on the
  // segment arrays).
  friend bool operator==(const StepProfile& a, const StepProfile& b) {
    return a.steps_ == b.steps_;
  }

 private:
  // Sorted by start; start(0) == 0; adjacent values distinct.
  SegStore steps_;
  // Mutation version (see version()). Plain integer: every increment site
  // requires exclusive access to the profile already.
  std::uint64_t version_ = 0;

  // Position of the segment containing t (t >= 0).
  [[nodiscard]] std::size_t index_of(Time t) const noexcept;
  // Ensures a breakpoint exists exactly at t; returns its position.
  std::size_t split_at(Time t);
  // Erases the step at position i if it duplicates its left neighbour's
  // value.
  void coalesce_at(std::size_t i);
};

}  // namespace resched
