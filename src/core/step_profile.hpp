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
// of its block, and every split, coalesce or rollback splice shifts only
// the shorter side of its edit point: an add near the profile's front (a
// scheduler committing at its clock) or its back moves a few slots, not
// the whole tail; the worst case, an add in the middle, moves half.
//
// Windowed queries (min_in / max_in / first_below / first_at_least) are the
// schedulers' per-placement hot path. Each starts as a bounded linear scan
// (faster than any descent while windows are short) and hands over to a
// lazily built min/max-augmented implicit segment tree, O(log s), once the
// window proves to span more than kIndexedLeafCutoff segments. The same
// tree carries a sum augmentation (per-node integral over the node's finite
// span, 128-bit), which turns `integral` into an O(log s) range-sum and
// `time_to_accumulate` into an O(log s) descent with exact linear scans on
// the at-most-two partially covered boundary leaves.
//
// Segment-tree index invariants (cache published as an immutable snapshot;
// steps_ stays authoritative):
//  I1. The index is built on demand from a snapshot of the breakpoints:
//      leaf j covers the time span [times[j], times[j+1]) (the last leaf
//      extends to +infinity). `times` never changes between rebuilds, even
//      as steps_ keeps splitting and coalescing, so a leaf's span can come
//      to contain several real segments.
//  I2. Node v covers a contiguous leaf range. Its stored min/max are exact
//      aggregates of the *current* function over that span, up to pending
//      lazy addends: true_agg(v) = stored(v) + sum of lazy[a] over strict
//      ancestors a of v. lazy[v] is an addend that applies to both children's
//      subtrees and is already folded into stored(v).
//  I3. add(from, to, delta) keeps the index exact incrementally: leaves
//      fully covered by [from, to) receive an O(log s) lazy range-add; the
//      at-most-two partially covered boundary leaves are recomputed exactly
//      by scanning steps_ over their spans. Adds beyond a per-build budget
//      (or structural churn on a small profile) drop the index, and the
//      next windowed query rebuilds it in O(s) -- O(1) amortized.
//  I4. Tree arithmetic saturates at the int64 extremes instead of wrapping
//      (padding leaves hold +/-inf sentinels). Saturation is exact for all
//      |values| < 2^62; checked segment arithmetic keeps real capacity
//      profiles far below that. Sum nodes are 128-bit and cannot saturate
//      silently: any sum overflow clears Index::sums_ok, and the sum-backed
//      queries fall back to the exact linear scan until the next rebuild
//      (min/max stay valid). The unbounded last leaf and the padding leaves
//      carry span length 0, so they contribute nothing to any range sum.
//  I5. Concurrent *const* reads of one profile from many threads are safe.
//      The index lives behind a std::atomic<Index*> snapshot slot: a const
//      query that needs it builds a fresh snapshot from steps_ and installs
//      it with a single compare-exchange (first builder wins; a losing
//      racer deletes its own build and adopts the installed one -- both
//      were derived from the same steps_, so they answer identically).
//      Readers never mutate an installed snapshot, and no reference
//      counting is needed: a snapshot is only deleted by add(), assignment
//      or destruction, all of which require exclusive access to the
//      profile (standard-library container rules), at which point no
//      reader can still hold it. This is what lets CampaignRunner share
//      one generated instance across its worker threads instead of
//      regenerating it.
//  I6. A rollback() of a recorded add is budget-neutral: the inverse patch
//      never consumes a rebuild-budget unit and refunds the unit the
//      recorded add spent (only to the very snapshot that spent it -- one
//      rebuilt mid-pair starts with a full budget and is not credited), so
//      a commit/rollback pair leaves the snapshot, its budget and the
//      amortization argument exactly where they were.
//      This is sound because the pair is structurally net-zero: rollback
//      restores the very segments the add displaced, so leaf spans hold no
//      more real segments after the pair than before it.
//
// add() provides the strong exception guarantee: it validates every affected
// segment's checked addition before the first structural change, so an
// overflowing add throws with the profile (and its canonical form) intact.
//
// Transactional mutation (undo log): add_recorded() performs an add and
// fills an opaque Undo record with the touched region -- the segments that
// existed over [window, to] before the add and the segments the add left
// there -- plus whether the index snapshot was patched in place (one rebuild
// budget unit) or dropped. rollback() then restores the region with a single
// splice in O(touched), *without* re-running add's probe/split/coalesce
// machinery, verifies against the recorded post-state that it really is
// reversing that mutation (a stale or out-of-order rollback trips
// RESCHED_CHECK instead of silently corrupting the function), and
// inverse-patches the index snapshot without consuming budget, refunding the
// unit the recorded add spent. A tentative probe sequence (add_recorded ->
// queries -> rollback) is therefore structurally net-zero: no budget drain,
// no index drop, no O(s) rebuild -- branch-and-bound's place/backtrack
// loops and the service's plan/rewind cycles run entirely on warm
// snapshots. Undo records unwind newest-first (strict nesting, the shape
// backtracking search and plan rewinds produce). Records whose *checked
// state* -- the closed region [window_lo, to] plus the value of the step
// immediately left of it -- was not touched by any still-live later
// mutation may also unwind out of order; anything else trips the rollback
// check. Note the checked state is slightly wider than the mutation window
// [from, to): a later add that merely coalesces across this record's region
// boundary, or shifts the region's trailing piece at `to`, blocks this
// record until it unwinds.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
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

  // Copies drop the query-index cache (it is rebuilt on demand; at 20k+
  // segments the cache is megabytes, and copy sites -- snapshots, minus()'s
  // negation -- rarely reuse it). Moves keep it. Hand-written because the
  // atomic snapshot slot is neither copyable nor movable itself; copy/move
  // require exclusive access to both operands (standard container rules).
  StepProfile(const StepProfile& other) : steps_(other.steps_) {}
  StepProfile& operator=(const StepProfile& other) {
    steps_ = other.steps_;
    drop_index();
    ++version_;
    return *this;
  }
  StepProfile(StepProfile&& other) noexcept
      : steps_(std::move(other.steps_)),
        index_(other.index_.exchange(nullptr, std::memory_order_relaxed)),
        index_builds_(other.index_builds_.load(std::memory_order_relaxed)),
        version_(other.version_) {}
  StepProfile& operator=(StepProfile&& other) noexcept {
    if (this != &other) {
      steps_ = std::move(other.steps_);
      delete index_.exchange(
          other.index_.exchange(nullptr, std::memory_order_relaxed),
          std::memory_order_relaxed);
      index_builds_.store(other.index_builds_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      version_ = other.version_;
    }
    return *this;
  }
  ~StepProfile() { drop_index(); }

  [[nodiscard]] std::int64_t value_at(Time t) const;

  // Adds delta on [from, to); no-op when from >= to. Times must be >= 0.
  // Strong exception guarantee: throws std::overflow_error with the profile
  // unchanged when any affected segment's value would overflow.
  void add(Time from, Time to, std::int64_t delta);

  // Opaque undo record for one recorded add (see the transactional-mutation
  // notes in the header comment). Default-constructed records are dead;
  // add_recorded arms them, rollback (or a fresh add_recorded) spends them.
  // Copy/move keep the usual value semantics; destroying a live record
  // simply makes its mutation permanent.
  class Undo {
   public:
    Undo() = default;
    [[nodiscard]] bool live() const noexcept { return live_; }

   private:
    friend class StepProfile;
    Time from_ = 0;
    Time to_ = 0;
    std::int64_t delta_ = 0;
    Time window_lo_ = 0;          // start of the segment containing from_
    // Value of the step left of window_lo_ at record time (valid iff
    // window_lo_ > 0). Anchors the coalesce replay in rollback(): if a
    // later mutation changed it, the rollback trips instead of splicing a
    // non-canonical (or wrong) region back.
    std::int64_t left_value_ = 0;
    // Snapshot the recorded add patched in place (nullptr when it found
    // none or dropped it). rollback() refunds the consumed budget unit
    // only to this exact snapshot, so a drop-and-rebuild between the pair
    // cannot over-credit a fresh snapshot that never spent it.
    const void* patched_index_ = nullptr;
    bool live_ = false;
    // The steps that covered [window_lo_, to_] before the add -- everything
    // the add could touch. The post-state is not stored: rollback replays
    // the add's transformation of these few steps to verify it is reversing
    // the right mutation, which keeps the recording cost on the (hot,
    // usually accepted) commit path to one small copy. A SegStore: undo
    // windows are nearly always a handful of segments, so the record stays
    // entirely inline (no heap traffic on the probe path).
    SegStore steps_;
  };

  // add() that additionally fills `undo` so rollback() can revert it in
  // O(touched). Reuses undo's buffer capacity, so a caller cycling one
  // record through a probe loop allocates only on its first (or widest)
  // commit. Same strong exception guarantee as add(): on overflow, throws
  // with the profile unchanged and `undo` left dead.
  void add_recorded(Time from, Time to, std::int64_t delta, Undo& undo);

  // Reverts the recorded add: splices the prior segments back (O(touched)
  // plus the shorter side's shift), after RESCHED_CHECK-ing that the current
  // region still matches the recorded post-state -- reversing anything
  // other than the newest overlapping mutation is a caller bug, surfaced
  // loudly instead of corrupting the function. Restores the index snapshot
  // by exact inverse patching without consuming rebuild budget, refunding
  // the unit the recorded add spent.
  void rollback(Undo& undo);

  // Number of full O(s) index builds this profile has performed (diagnostic
  // for tests/benches; tentative probe loops must keep this flat). Copies
  // start at zero, moves carry the count.
  [[nodiscard]] std::uint64_t index_build_count() const noexcept {
    return index_builds_.load(std::memory_order_relaxed);
  }

  // Heap blocks the segment store has allocated (diagnostic, mirroring
  // index_build_count: copies start at zero, moves carry the count; probe
  // loops on a warmed profile must keep this flat). The thread-local
  // resched::alloc_count() sees the same events plus everything else.
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
  // (add, add_recorded, rollback, compact_before, copy assignment). The O(1)
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
  // one segment per completed job forever. Structural, so it drops the query
  // index. The prefix erase itself is O(1) in storage: the two-ended store
  // only advances its front. Returns the number of segments removed.
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
  // O(log s) descent instead of stepping breakpoint by breakpoint.
  [[nodiscard]] Time first_at_least(Time from, std::int64_t threshold) const;

  // Smallest breakpoint strictly greater than t, or kTimeInfinity if the
  // function is constant after t.
  [[nodiscard]] Time next_change_after(Time t) const;

  // Integral of the function over [from, to); throws std::overflow_error
  // when the (exact, 128-bit-accumulated) result does not fit in int64.
  // Requires from <= to and to < kTimeInfinity. O(log s) through the
  // sum-augmented index on wide windows.
  [[nodiscard]] std::int64_t integral(Time from, Time to) const;

  // Earliest T >= from such that integral(from, T) >= target (target >= 0),
  // where non-positive-rate stretches contribute nothing (the callers'
  // profiles -- capacities, availabilities -- are non-negative, and a
  // work-area target can never be paid off by negative rate). Unreachable
  // targets are reported as kTimeInfinity. O(log s) through the
  // sum-augmented index on non-negative profiles; nodes containing negative
  // values are expanded exactly instead of trusting their range sum.
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
  // segment vector; the index cache is explicitly not compared).
  friend bool operator==(const StepProfile& a, const StepProfile& b) {
    return a.steps_ == b.steps_;
  }

 private:
  // Profiles below this size answer windowed queries by linear scan; the
  // index only pays for itself once scans get long.
  static constexpr std::size_t kMinIndexedSegments = 32;
  // Windows spanning fewer index leaves than this are answered by linear
  // scan even on indexed profiles: a short contiguous scan beats the
  // pointer-chasing descent until a few hundred segments (measured in
  // bench_profile_ops; see BUILDING.md).
  static constexpr std::size_t kIndexedLeafCutoff = 256;

  // 128-bit accumulator for the sum augmentation: node integrals are exact
  // products value * span, whose partial sums can exceed 64 bits long
  // before the final clamped result does.
  using Wide = __int128;

  // Lazily built min/max/sum segment tree over a breakpoint snapshot; see
  // the invariants I1-I5 in the header comment. Published through the
  // atomic slot below; immutable while readable concurrently (I5).
  struct Index {
    std::vector<Time> times;        // snapshot breakpoints; times[0] == 0
    std::vector<std::int64_t> min;  // implicit tree, 2*cap entries
    std::vector<std::int64_t> max;
    std::vector<std::int64_t> lazy;
    std::vector<Wide> sum;   // integral over the node's finite span
    std::vector<Time> len;   // finite span length (last + padding leaves: 0)
    std::size_t cap = 0;     // power-of-two leaf capacity
    std::size_t budget = 0;  // incremental adds left before a rebuild
    // Cleared when a sum update would overflow 128 bits (adversarial values
    // only); integral/time_to_accumulate then fall back to exact scans
    // while min/max queries keep using the tree.
    bool sums_ok = false;
  };

  // Sorted by start; start(0) == 0; adjacent values distinct. The
  // snapshot slot owns its Index exclusively (null = no index): readers
  // install via compare-exchange (invariant I5); add(), assignment and the
  // destructor delete it under exclusive access. A raw atomic pointer, not
  // atomic<shared_ptr>: reader references cannot outlive the exclusive
  // operations that delete, so reference counting would buy nothing (and
  // libstdc++'s _Sp_atomic lock-bit protocol is opaque to TSan, which the
  // shared-read stress suite runs under).
  SegStore steps_;
  mutable std::atomic<Index*> index_{nullptr};
  // Diagnostic only (never compared, never part of function equality):
  // counts build_index runs, including builds a racing reader discarded.
  mutable std::atomic<std::uint64_t> index_builds_{0};
  // Mutation version (see version()). Plain integer: every increment site
  // requires exclusive access to the profile already.
  std::uint64_t version_ = 0;

  void drop_index() noexcept {
    delete index_.exchange(nullptr, std::memory_order_relaxed);
  }

  // Index of the segment containing t (t >= 0).
  [[nodiscard]] std::size_t index_of(Time t) const noexcept;
  // Ensures a breakpoint exists exactly at t; returns its index.
  std::size_t split_at(Time t);
  // Erases the step at index i if it duplicates its left neighbour's value.
  void coalesce_at(std::size_t i);

  // Linear-scan fallbacks (exact over [from, to) clipped to the function).
  // The *_at variants take the precomputed index_of(from) so hot callers
  // pay for one binary search, not two.
  [[nodiscard]] std::int64_t scan_min_at(std::size_t i, Time to) const;
  [[nodiscard]] std::int64_t scan_max_at(std::size_t i, Time to) const;
  [[nodiscard]] Time scan_first_below_at(std::size_t i, Time from, Time to,
                                         std::int64_t threshold) const;
  [[nodiscard]] Time scan_first_at_least_at(std::size_t i, Time from,
                                            std::int64_t threshold) const;
  [[nodiscard]] std::int64_t scan_min(Time from, Time to) const;
  [[nodiscard]] std::int64_t scan_max(Time from, Time to) const;
  [[nodiscard]] Time scan_first_below(Time from, Time to,
                                      std::int64_t threshold) const;
  [[nodiscard]] Time scan_first_at_least(Time from,
                                         std::int64_t threshold) const;
  // Exact 128-bit integral over [from, to) by linear scan (i =
  // index_of(from)); clears `ok` on 128-bit overflow instead of wrapping.
  [[nodiscard]] Wide scan_integral_at(std::size_t i, Time from, Time to,
                                      bool& ok) const;
  // Exact positive-rate accumulation across steps_[i..) from `cursor` until
  // `remaining` is paid off or `stop` (exclusive; kTimeInfinity = the whole
  // tail) is reached. Returns the crossing time, or kTimeInfinity with
  // `remaining` updated when the stop bound (or an all-deficient tail) is
  // hit first. This is the single place the ceil_div crossing rule and the
  // near-infinity clamp live; both scan and indexed paths end in it.
  [[nodiscard]] Time scan_accumulate(std::size_t i, Time cursor, Time stop,
                                     std::int64_t& remaining) const;

  // Indexed descents behind the public queries; require the window to span
  // more than one leaf. lo_idx = index_of(from).
  [[nodiscard]] std::int64_t indexed_min_in(Time from, Time to,
                                            std::size_t lo_idx) const;
  [[nodiscard]] std::int64_t indexed_max_in(Time from, Time to,
                                            std::size_t lo_idx) const;
  [[nodiscard]] Time indexed_first_below(Time from, Time to,
                                         std::int64_t threshold,
                                         std::size_t lo_idx) const;

  // ---- segment-tree index plumbing ----
  // Every helper below takes the Index explicitly: readers operate on the
  // snapshot they loaded (shared, const), add() on the one it owns
  // exclusively. Nothing touches the atomic slot but ensure_index and
  // index_apply_add.
  //
  // Builds a fresh snapshot from steps_ (O(s)).
  [[nodiscard]] std::unique_ptr<Index> build_index() const;
  // Returns the installed snapshot, building + installing one (single
  // compare-exchange, first builder wins) when the slot is empty. The
  // reference stays valid for the rest of the calling query (I5).
  [[nodiscard]] const Index& ensure_index() const;
  // Incremental maintenance hook, called at the end of a successful add().
  // Returns the snapshot it patched in place (one budget unit consumed),
  // or nullptr when there was no snapshot or it had to be dropped.
  const Index* index_apply_add(Time from, Time to, std::int64_t delta);
  // Inverse patch for rollback(): same leaf-window decomposition as
  // index_apply_add with -delta, but budget-neutral -- it never drops for
  // budget, never consumes a unit, and refunds the one the recorded add
  // spent (only to the very snapshot that spent it, undo.patched_index_).
  // Runs after the region splice, so the boundary-leaf recomputes read the
  // restored steps_.
  void index_rollback_patch(const Undo& undo);
  // Shared body of the two patchers: recomputes the window's partially
  // covered boundary leaves from steps_ and lazy range-adds delta over the
  // fully covered ones. Kept in one place so the forward and inverse
  // patches can never desynchronize.
  void index_patch_leaves(Index& ix, Time from, Time to,
                          std::int64_t delta) const;
  // Shared body of add()/add_recorded(); undo == nullptr means unrecorded.
  void add_impl(Time from, Time to, std::int64_t delta, Undo* undo);
  // Leaf j's time span is [times[j], index_leaf_end(j)).
  [[nodiscard]] static Time index_leaf_end(const Index& ix, std::size_t j);
  // Leaf containing time t.
  [[nodiscard]] static std::size_t index_leaf_of(const Index& ix, Time t);
  // How a window [from, to) decomposes onto the snapshot leaves: lo/hi are
  // the first/last leaves it intersects; a *_partial flag means the window
  // covers that edge leaf only partially. Shared by every indexed query and
  // by index_apply_add, so the boundary rules live in exactly one place.
  struct LeafWindow {
    std::size_t lo_leaf;
    std::size_t hi_leaf;
    bool left_partial;
    bool right_partial;
  };
  [[nodiscard]] static LeafWindow index_leaf_window(const Index& ix,
                                                    Time from, Time to);
  // Recomputes leaf j's min/max exactly from steps_ and pulls up.
  void index_recompute_leaf(Index& ix, std::size_t j) const;
  static void index_range_add(Index& ix, std::size_t node,
                              std::size_t node_lo, std::size_t node_hi,
                              std::size_t lo, std::size_t hi,
                              std::int64_t delta);
  [[nodiscard]] static std::int64_t index_range_min(
      const Index& ix, std::size_t node, std::size_t node_lo,
      std::size_t node_hi, std::size_t lo, std::size_t hi, std::int64_t acc);
  [[nodiscard]] static std::int64_t index_range_max(
      const Index& ix, std::size_t node, std::size_t node_lo,
      std::size_t node_hi, std::size_t lo, std::size_t hi, std::int64_t acc);
  // Leftmost leaf in [lo, hi] whose exact min is < threshold (kNoLeaf when
  // none) / whose exact max is >= threshold.
  static constexpr std::size_t kNoLeaf = static_cast<std::size_t>(-1);
  [[nodiscard]] static std::size_t index_first_leaf_below(
      const Index& ix, std::size_t node, std::size_t node_lo,
      std::size_t node_hi, std::size_t lo, std::size_t hi,
      std::int64_t threshold, std::int64_t acc);
  [[nodiscard]] static std::size_t index_first_leaf_at_least(
      const Index& ix, std::size_t node, std::size_t node_lo,
      std::size_t node_hi, std::size_t lo, std::size_t hi,
      std::int64_t threshold, std::int64_t acc);
  // Exact integral over the leaves [lo, hi] (full leaves only; boundary
  // partials are the caller's scans). acc = 128-bit sum of strict-ancestor
  // lazies. Clears `ok` instead of wrapping on 128-bit overflow.
  [[nodiscard]] static Wide index_range_sum(const Index& ix, std::size_t node,
                                            std::size_t node_lo,
                                            std::size_t node_hi,
                                            std::size_t lo, std::size_t hi,
                                            Wide acc, bool& ok);
  // time_to_accumulate descent over the full leaves [lo, hi]: skips nodes
  // whose (non-negative, so monotone) range sum stays below `remaining`,
  // expands nodes containing negative values, and finishes inside the
  // crossing leaf with the exact scan. Returns the crossing time or
  // kTimeInfinity with `remaining` updated. Clears `ok` on 128-bit
  // overflow (callers then redo the query by scan).
  [[nodiscard]] Time index_accumulate(const Index& ix, std::size_t node,
                                      std::size_t node_lo,
                                      std::size_t node_hi, std::size_t lo,
                                      std::size_t hi, std::int64_t acc,
                                      Wide acc_wide, std::int64_t& remaining,
                                      bool& ok) const;
};

}  // namespace resched
