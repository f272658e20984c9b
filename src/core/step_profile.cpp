#include "core/step_profile.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {

namespace {

// Saturating arithmetic for the index (invariant I4): padding leaves hold
// +/-inf sentinels, so tree math must clamp instead of wrapping. Exact for
// all |values| < 2^62.
std::int64_t sat_add(std::int64_t a, std::int64_t b) noexcept {
  std::int64_t r = 0;
  if (!__builtin_add_overflow(a, b, &r)) return r;
  return b > 0 ? std::numeric_limits<std::int64_t>::max()
               : std::numeric_limits<std::int64_t>::min();
}

std::int64_t sat_sub(std::int64_t a, std::int64_t b) noexcept {
  std::int64_t r = 0;
  if (!__builtin_sub_overflow(a, b, &r)) return r;
  return b < 0 ? std::numeric_limits<std::int64_t>::max()
               : std::numeric_limits<std::int64_t>::min();
}

// 128-bit checked helpers for the sum augmentation. A single int64 * int64
// product always fits (|v| * |len| < 2^126), so only additions can
// overflow; they report it instead of wrapping and the caller degrades to
// the exact linear scan (Index::sums_ok).
using Wide = __int128;

[[nodiscard]] bool wide_add(Wide& a, Wide b) noexcept {
  return !__builtin_add_overflow(a, b, &a);
}

Wide wide_mul(std::int64_t a, Time b) noexcept {
  return static_cast<Wide>(a) * static_cast<Wide>(b);
}

// Accumulated-lazy times span products: the lazy sum itself is wider than
// int64, so this multiply needs a real overflow check.
[[nodiscard]] bool wide_mul_add(Wide& acc, Wide a, Wide b) noexcept {
  Wide product = 0;
  if (__builtin_mul_overflow(a, b, &product)) return false;
  return !__builtin_add_overflow(acc, product, &acc);
}

constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

}  // namespace

StepProfile::StepProfile(std::int64_t initial_value) {
  steps_.push_back(Time{0}, initial_value);
}

std::size_t StepProfile::index_of(Time t) const noexcept {
  // Last index whose start is <= t; the front start of 0 and t >= 0 make the
  // "- 1" safe.
  return steps_.upper_bound_start(t) - 1;
}

std::int64_t StepProfile::value_at(Time t) const {
  RESCHED_REQUIRE_MSG(t >= 0, "profile queried at negative time");
  return steps_.value(index_of(t));
}

std::size_t StepProfile::split_at(Time t) {
  const std::size_t i = index_of(t);
  if (steps_.start(i) == t) return i;
  steps_.insert(i + 1, t, steps_.value(i));
  return i + 1;
}

void StepProfile::coalesce_at(std::size_t i) {
  if (i == 0 || i >= steps_.size()) return;
  if (steps_.value(i) == steps_.value(i - 1)) steps_.erase(i);
}

void StepProfile::add(Time from, Time to, std::int64_t delta) {
  add_impl(from, to, delta, nullptr);
}

void StepProfile::add_recorded(Time from, Time to, std::int64_t delta,
                               Undo& undo) {
  add_impl(from, to, delta, &undo);
}

void StepProfile::add_impl(Time from, Time to, std::int64_t delta,
                           Undo* undo) {
  RESCHED_REQUIRE_MSG(from >= 0, "profile add with negative start");
  if (undo != nullptr) {
    // Disarm first: on a no-op or a thrown overflow the record stays dead.
    undo->live_ = false;
    undo->steps_.clear();
  }
  if (from >= to || delta == 0) return;
  // Strong exception guarantee: probe every affected segment's checked
  // addition before the first structural change. Without this, an overflow
  // mid-window would throw with partial deltas applied and the split
  // breakpoints uncoalesced -- a silently non-canonical profile.
  const std::size_t region = index_of(from);
  for (std::size_t i = region; i < steps_.size() && steps_.start(i) < to; ++i)
    (void)checked_add(steps_.value(i), delta);
  if (undo != nullptr) {
    // Everything the add can touch -- value shifts, the two edge splits and
    // the two edge coalesces -- lives in the steps whose start falls in
    // [window_lo, to], where window_lo is the start of the segment
    // containing `from`; steps outside stay bit-identical. Record them.
    undo->from_ = from;
    undo->to_ = to;
    undo->delta_ = delta;
    undo->window_lo_ = steps_.start(region);
    undo->left_value_ = region > 0 ? steps_.value(region - 1) : 0;
    const std::size_t prior_end =
        (to >= kTimeInfinity) ? steps_.size() : index_of(to) + 1;
    undo->steps_.assign_range(steps_, region, prior_end);
  }
  // split_at(from), with the binary search already paid for by the probe.
  std::size_t first = region;
  if (steps_.start(region) != from) {
    steps_.insert(region + 1, from, steps_.value(region));
    first = region + 1;
  }
  // Split the right edge only for finite windows; [from, kTimeInfinity)
  // means "from `from` onwards".
  const std::size_t last =
      (to >= kTimeInfinity) ? steps_.size() : split_at(to);
  // Validated above: the split pieces carry the same values that were probed.
  for (std::size_t i = first; i < last; ++i) steps_.add_value(i, delta);
  // Interior neighbours shifted by the same delta stay distinct, so only the
  // two window edges can need merging. Right edge first: erasing there does
  // not move `first`.
  coalesce_at(last);
  coalesce_at(first);
  if (undo != nullptr) {
    undo->patched_index_ = index_apply_add(from, to, delta);
    undo->live_ = true;
  } else {
    (void)index_apply_add(from, to, delta);
  }
  ++version_;
}

void StepProfile::rollback(Undo& undo) {
  RESCHED_CHECK_MSG(undo.live_, "rollback of a dead or spent undo record");
  // Locate the recorded region in the current store. The first step with
  // start >= window_lo begins it (the step at window_lo itself may have
  // been coalesced away by the recorded add); the first step with
  // start > to ends it.
  const std::size_t lo = steps_.lower_bound_start(undo.window_lo_);
  const std::size_t hi =
      (undo.to_ >= kTimeInfinity) ? steps_.size() : index_of(undo.to_) + 1;
  // The region must be exactly what the recorded add left there: anything
  // else means a later overlapping mutation is still in effect (or the
  // record belongs to another profile) and "reverting" would corrupt the
  // function -- the silent capacity inflation this layer exists to kill.
  // Verified by replaying the add's transformation of the few recorded
  // steps (split at the window edges, shift by delta, coalesce into the
  // recorded left neighbour) against the current region. The left
  // neighbour's value is checked against the record first: it anchors the
  // coalesce replay, and a later mutation that changed it (e.g. one that
  // coalesced across this record's window_lo boundary) would otherwise
  // make the replay accept -- and splice back -- a non-canonical region.
  // A failed rollback consumes nothing: undo the blocking mutation first
  // and the record is usable again.
  const SegStore& prior = undo.steps_;
  bool matches = hi >= lo && hi <= steps_.size();
  const bool have_left = undo.window_lo_ > 0;
  if (have_left)
    matches = matches && lo > 0 && steps_.value(lo - 1) == undo.left_value_;
  else
    matches = matches && lo == 0;
  std::size_t cursor = lo;
  bool left_known = have_left;
  std::int64_t left_value = undo.left_value_;
  const auto expect = [&](Time start, std::int64_t value) {
    if (left_known && value == left_value) return;  // coalesced left
    if (cursor >= hi || steps_.start(cursor) != start ||
        steps_.value(cursor) != value) {
      matches = false;
      return;
    }
    ++cursor;
    left_known = true;
    left_value = value;
  };
  // Leading unmodified piece of the split segment containing `from`.
  if (undo.from_ > undo.window_lo_) expect(prior.start(0), prior.value(0));
  // The shifted pieces over [from, to).
  for (std::size_t j = 0; j < prior.size() && matches; ++j) {
    if (prior.start(j) >= undo.to_) break;
    expect(std::max(prior.start(j), undo.from_),
        // resched-lint: time-arith-audited(verify-mode replay of a checked-path delta)
           prior.value(j) + undo.delta_);
  }
  // Trailing unmodified piece from `to` on (the last recorded step is the
  // one containing -- or starting at -- `to`).
  if (undo.to_ < kTimeInfinity) expect(undo.to_, prior.back_value());
  if (cursor != hi) matches = false;
  RESCHED_CHECK_MSG(matches,
                    "rollback does not reverse the newest mutation of its "
                    "region");
  undo.live_ = false;
  // Splice the prior steps back in: one shift of the shorter side plus one
  // copy per array (SegStore::replace_range), never add's
  // probe/split/coalesce path.
  steps_.replace_range(lo, hi, prior);
  index_rollback_patch(undo);
  ++version_;
}

std::size_t StepProfile::compact_before(Time t) {
  RESCHED_REQUIRE_MSG(t >= 0, "compact_before with negative time");
  const std::size_t i = index_of(t);
  if (i == 0) return 0;
  // The suffix [i, ...) already starts with the segment containing t;
  // promoting it to cover [0, t) keeps canonical form (its value differs
  // from its right neighbour's by the invariant on steps_).
  steps_.erase(0, i);
  steps_.set_start(0, 0);
  drop_index();
  ++version_;
  return i;
}

// ---------------------------------------------------------------------------
// Linear-scan query fallbacks (exact; used below kMinIndexedSegments and for
// the partial boundary leaves of indexed queries). Each hoists the SoA value
// array once and streams it contiguously -- the scan-heavy leaf walks this
// layout exists for.
// ---------------------------------------------------------------------------

std::int64_t StepProfile::scan_min_at(std::size_t i, Time to) const {
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  std::int64_t result = values[i];
  for (++i; i < steps_.size() && times[i] < to; ++i)
    result = std::min(result, values[i]);
  return result;
}

std::int64_t StepProfile::scan_max_at(std::size_t i, Time to) const {
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  std::int64_t result = values[i];
  for (++i; i < steps_.size() && times[i] < to; ++i)
    result = std::max(result, values[i]);
  return result;
}

Time StepProfile::scan_first_below_at(std::size_t i, Time from, Time to,
                                      std::int64_t threshold) const {
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  if (values[i] < threshold) return from;
  for (++i; i < steps_.size() && times[i] < to; ++i)
    if (values[i] < threshold) return times[i];
  return kTimeInfinity;
}

Time StepProfile::scan_first_at_least_at(std::size_t i, Time from,
                                         std::int64_t threshold) const {
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  if (values[i] >= threshold) return from;
  for (++i; i < steps_.size(); ++i)
    if (values[i] >= threshold) return times[i];
  return kTimeInfinity;
}

std::int64_t StepProfile::scan_min(Time from, Time to) const {
  return scan_min_at(index_of(from), to);
}

std::int64_t StepProfile::scan_max(Time from, Time to) const {
  return scan_max_at(index_of(from), to);
}

Time StepProfile::scan_first_below(Time from, Time to,
                                   std::int64_t threshold) const {
  return scan_first_below_at(index_of(from), from, to, threshold);
}

Time StepProfile::scan_first_at_least(Time from,
                                      std::int64_t threshold) const {
  return scan_first_at_least_at(index_of(from), from, threshold);
}

StepProfile::Wide StepProfile::scan_integral_at(std::size_t i, Time from,
                                                Time to, bool& ok) const {
  Wide area = 0;
  Time cursor = from;
  while (cursor < to) {
    const Time seg_end =
        (i + 1 < steps_.size()) ? std::min(steps_.start(i + 1), to) : to;
    // resched-lint: time-arith-audited(wide_add/wide_mul detect 128-bit overflow here)
    if (!wide_add(area, wide_mul(steps_.value(i), seg_end - cursor)))
      ok = false;
    cursor = seg_end;
    ++i;
  }
  return area;
}

Time StepProfile::scan_accumulate(std::size_t i, Time cursor, Time stop,
                                  std::int64_t& remaining) const {
  while (true) {
    if (cursor >= stop) return kTimeInfinity;  // bound hit; remaining updated
    const bool is_last = (i + 1 == steps_.size());
    const Time seg_end =
        std::min(is_last ? kTimeInfinity : steps_.start(i + 1), stop);
    const std::int64_t rate = steps_.value(i);
    if (rate > 0) {
      const Time needed = ceil_div(remaining, rate);
      // resched-lint: time-arith-audited(seg_end < kTimeInfinity here; the span fits int64)
      if (seg_end >= kTimeInfinity || needed <= seg_end - cursor) {
        // cursor + needed can exceed INT64_MAX (e.g. target near the int64
        // ceiling over a rate-1 tail); mathematically that is simply "past
        // any horizon", so clamp instead of tripping the overflow check.
        // resched-lint: time-arith-audited(guarded by this very kTimeInfinity comparison)
        return needed >= kTimeInfinity - cursor ? kTimeInfinity
        // resched-lint: time-arith-audited(reached only when needed < kTimeInfinity - cursor)
                                                : cursor + needed;
      }
      // Never overflows: the subtraction only runs when rate * len <
      // remaining <= INT64_MAX (a crossing segment returned above).
      // resched-lint: time-arith-audited(rate * span < remaining <= INT64_MAX on this branch)
      remaining -= checked_mul(rate, seg_end - cursor);
    }
    if (seg_end >= kTimeInfinity) return kTimeInfinity;  // deficient tail
    cursor = seg_end;
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Segment-tree index (invariants I1-I5 in the header).
// ---------------------------------------------------------------------------

std::unique_ptr<StepProfile::Index> StepProfile::build_index() const {
  index_builds_.fetch_add(1, std::memory_order_relaxed);
  auto out = std::make_unique<Index>();
  Index& ix = *out;
  const std::size_t leaves = steps_.size();
  // SoA payoff: the breakpoint snapshot is one contiguous copy, and the
  // leaf fill below streams the value array without striding over starts.
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  ix.times.assign(times, times + leaves);
  ix.cap = std::bit_ceil(leaves);
  ix.min.assign(2 * ix.cap, std::numeric_limits<std::int64_t>::max());
  ix.max.assign(2 * ix.cap, std::numeric_limits<std::int64_t>::min());
  ix.lazy.assign(2 * ix.cap, 0);
  // Sum augmentation: len is the finite span length under each node; the
  // unbounded last leaf and the padding leaves carry 0 so they never
  // contribute to a range sum (invariant I4).
  ix.sum.assign(2 * ix.cap, 0);
  ix.len.assign(2 * ix.cap, 0);
  ix.sums_ok = true;
  for (std::size_t i = 0; i < leaves; ++i) {
    ix.min[ix.cap + i] = values[i];
    ix.max[ix.cap + i] = values[i];
    if (i + 1 < leaves) {
      ix.len[ix.cap + i] = times[i + 1] - times[i];
      ix.sum[ix.cap + i] = wide_mul(values[i], ix.len[ix.cap + i]);
    }
  }
  for (std::size_t v = ix.cap - 1; v >= 1; --v) {
    ix.min[v] = std::min(ix.min[2 * v], ix.min[2 * v + 1]);
    ix.max[v] = std::max(ix.max[2 * v], ix.max[2 * v + 1]);
    ix.len[v] = ix.len[2 * v] + ix.len[2 * v + 1];
    ix.sum[v] = ix.sum[2 * v];
    if (!wide_add(ix.sum[v], ix.sum[2 * v + 1])) ix.sums_ok = false;
  }
  // Amortization: after ~s incremental adds a boundary leaf's span may hold
  // enough real segments that recompute scans stop being cheap; an O(s)
  // rebuild every Theta(s) adds keeps everything O(1) amortized.
  ix.budget = std::max<std::size_t>(64, leaves);
  return out;
}

const StepProfile::Index& StepProfile::ensure_index() const {
  Index* snap = index_.load(std::memory_order_acquire);
  if (snap) return *snap;
  std::unique_ptr<Index> built = build_index();
  // Install with a single compare-exchange: the first builder wins, and a
  // losing racer deletes its own build and adopts the winner's snapshot
  // (invariant I5 -- both were built from the same steps_, which cannot
  // change while const reads are in flight, so they answer identically).
  Index* expected = nullptr;
  if (index_.compare_exchange_strong(expected, built.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire))
    return *built.release();
  return *expected;
}

Time StepProfile::index_leaf_end(const Index& ix, std::size_t j) {
  return j + 1 < ix.times.size() ? ix.times[j + 1] : kTimeInfinity;
}

std::size_t StepProfile::index_leaf_of(const Index& ix, Time t) {
  const auto it = std::upper_bound(ix.times.begin(), ix.times.end(), t);
  return static_cast<std::size_t>(it - ix.times.begin()) - 1;
}

StepProfile::LeafWindow StepProfile::index_leaf_window(const Index& ix,
                                                       Time from, Time to) {
  LeafWindow window{};
  window.lo_leaf = index_leaf_of(ix, from);
  window.left_partial = from > ix.times[window.lo_leaf];
  if (to >= kTimeInfinity) {
    // [from, +inf) covers the unbounded last leaf in full.
    window.hi_leaf = ix.times.size() - 1;
    window.right_partial = false;
  } else {
    window.hi_leaf = index_leaf_of(ix, to);
    if (ix.times[window.hi_leaf] == to) {
      // to > from >= times[lo_leaf] makes hi_leaf >= lo_leaf + 1 here.
      window.hi_leaf -= 1;
      window.right_partial = false;
    } else {
      window.right_partial = index_leaf_end(ix, window.hi_leaf) > to;
    }
  }
  return window;
}

void StepProfile::index_recompute_leaf(Index& ix, std::size_t j) const {
  const Time end = index_leaf_end(ix, j);
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  std::size_t i = index_of(ix.times[j]);
  std::int64_t lo = values[i];
  std::int64_t hi = values[i];
  // Exact integral over the leaf span. The unbounded last leaf has finite
  // length 0 by invariant I4, so its sum stays 0 regardless of content.
  Wide area = 0;
  if (end < kTimeInfinity) {
    bool ok = true;
    area = scan_integral_at(i, ix.times[j], end, ok);
    if (!ok) ix.sums_ok = false;
  }
  for (++i; i < steps_.size() && times[i] < end; ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  // Descend to the leaf, accumulating the pending lazy of strict ancestors;
  // the stored leaf value must exclude it (invariant I2).
  std::size_t node = 1;
  std::size_t node_lo = 0;
  std::size_t node_hi = ix.cap - 1;
  std::int64_t acc = 0;
  Wide acc_wide = 0;
  while (node_lo != node_hi) {
    acc = sat_add(acc, ix.lazy[node]);
    if (!wide_add(acc_wide, static_cast<Wide>(ix.lazy[node])))
      ix.sums_ok = false;
    const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
    if (j <= mid) {
      node = 2 * node;
      node_hi = mid;
    } else {
      node = 2 * node + 1;
      node_lo = mid + 1;
    }
  }
  ix.min[node] = sat_sub(lo, acc);
  ix.max[node] = sat_sub(hi, acc);
  ix.sum[node] = area;
  if (!wide_mul_add(ix.sum[node], -acc_wide, static_cast<Wide>(ix.len[node])))
    ix.sums_ok = false;
  while (node > 1) {
    node /= 2;
    ix.min[node] = sat_add(std::min(ix.min[2 * node], ix.min[2 * node + 1]),
                           ix.lazy[node]);
    ix.max[node] = sat_add(std::max(ix.max[2 * node], ix.max[2 * node + 1]),
                           ix.lazy[node]);
    ix.sum[node] = ix.sum[2 * node];
    if (!wide_add(ix.sum[node], ix.sum[2 * node + 1]) ||
        !wide_add(ix.sum[node], wide_mul(ix.lazy[node], ix.len[node])))
      ix.sums_ok = false;
  }
}

void StepProfile::index_range_add(Index& ix, std::size_t node,
                                  std::size_t node_lo, std::size_t node_hi,
                                  std::size_t lo, std::size_t hi,
                                  std::int64_t delta) {
  if (hi < node_lo || node_hi < lo) return;
  if (lo <= node_lo && node_hi <= hi) {
    ix.min[node] = sat_add(ix.min[node], delta);
    ix.max[node] = sat_add(ix.max[node], delta);
    if (!wide_add(ix.sum[node], wide_mul(delta, ix.len[node])))
      ix.sums_ok = false;
    if (node_lo != node_hi) ix.lazy[node] = sat_add(ix.lazy[node], delta);
    return;
  }
  const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
  index_range_add(ix, 2 * node, node_lo, mid, lo, hi, delta);
  index_range_add(ix, 2 * node + 1, mid + 1, node_hi, lo, hi, delta);
  ix.min[node] = sat_add(std::min(ix.min[2 * node], ix.min[2 * node + 1]),
                         ix.lazy[node]);
  ix.max[node] = sat_add(std::max(ix.max[2 * node], ix.max[2 * node + 1]),
                         ix.lazy[node]);
  ix.sum[node] = ix.sum[2 * node];
  if (!wide_add(ix.sum[node], ix.sum[2 * node + 1]) ||
      !wide_add(ix.sum[node], wide_mul(ix.lazy[node], ix.len[node])))
    ix.sums_ok = false;
}

void StepProfile::index_patch_leaves(Index& ix, Time from, Time to,
                                     std::int64_t delta) const {
  const LeafWindow window = index_leaf_window(ix, from, to);
  // A leaf is recomputed iff the window covers it only partially; that is
  // the lone leaf itself when the whole window sits inside one leaf.
  const bool lo_partial =
      window.left_partial ||
      (window.lo_leaf == window.hi_leaf && window.right_partial);
  const bool hi_partial =
      window.right_partial && window.hi_leaf != window.lo_leaf;
  if (lo_partial) index_recompute_leaf(ix, window.lo_leaf);
  if (hi_partial) index_recompute_leaf(ix, window.hi_leaf);
  const std::ptrdiff_t full_lo =
      static_cast<std::ptrdiff_t>(window.lo_leaf) + (lo_partial ? 1 : 0);
  const std::ptrdiff_t full_hi =
      static_cast<std::ptrdiff_t>(window.hi_leaf) - (hi_partial ? 1 : 0);
  if (full_lo <= full_hi)
    index_range_add(ix, 1, 0, ix.cap - 1, static_cast<std::size_t>(full_lo),
                    static_cast<std::size_t>(full_hi), delta);
}

const StepProfile::Index* StepProfile::index_apply_add(Time from, Time to,
                                                       std::int64_t delta) {
  // add() implies exclusive access (invariant I5): no reader holds the
  // snapshot while a mutation runs, so patching it in place is safe and
  // keeps the index warm across the add stream.
  Index* const snap = index_.load(std::memory_order_relaxed);
  if (snap == nullptr) return nullptr;
  if (steps_.size() < kMinIndexedSegments || snap->budget == 0) {
    drop_index();
    return nullptr;
  }
  --snap->budget;
  index_patch_leaves(*snap, from, to, delta);
  return snap;
}

void StepProfile::index_rollback_patch(const Undo& undo) {
  // Same exclusive-access argument as index_apply_add. The snapshot seen
  // here may postdate the recorded add (a const query built it from the
  // post-state mid-probe); the patch below is exact for any snapshot, since
  // boundary leaves are recomputed from the (already restored) steps_ and
  // fully covered leaves receive the exact inverse lazy addend.
  Index* const snap = index_.load(std::memory_order_relaxed);
  if (snap == nullptr) return;
  if (steps_.size() < kMinIndexedSegments) {
    drop_index();
    return;
  }
  if (undo.delta_ == kInt64Min) {
    // -delta is unrepresentable, so an exact inverse lazy-add is not
    // possible; such magnitudes exceed the tree's exact range anyway
    // (invariant I4). Rebuild from the restored segments instead.
    drop_index();
    return;
  }
  // Budget-neutral (invariant I6): no unit consumed, and the unit the
  // recorded add spent is refunded -- but only to the very snapshot that
  // spent it; a snapshot rebuilt mid-pair starts with a full budget and
  // must not be over-credited.
  if (snap == undo.patched_index_) ++snap->budget;
  index_patch_leaves(*snap, undo.from_, undo.to_, -undo.delta_);
}

std::int64_t StepProfile::index_range_min(const Index& ix, std::size_t node,
                                          std::size_t node_lo,
                                          std::size_t node_hi, std::size_t lo,
                                          std::size_t hi, std::int64_t acc) {
  if (hi < node_lo || node_hi < lo)
    return std::numeric_limits<std::int64_t>::max();
  if (lo <= node_lo && node_hi <= hi) return sat_add(ix.min[node], acc);
  const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
  const std::int64_t child_acc = sat_add(acc, ix.lazy[node]);
  return std::min(
      index_range_min(ix, 2 * node, node_lo, mid, lo, hi, child_acc),
      index_range_min(ix, 2 * node + 1, mid + 1, node_hi, lo, hi, child_acc));
}

std::int64_t StepProfile::index_range_max(const Index& ix, std::size_t node,
                                          std::size_t node_lo,
                                          std::size_t node_hi, std::size_t lo,
                                          std::size_t hi, std::int64_t acc) {
  if (hi < node_lo || node_hi < lo)
    return std::numeric_limits<std::int64_t>::min();
  if (lo <= node_lo && node_hi <= hi) return sat_add(ix.max[node], acc);
  const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
  const std::int64_t child_acc = sat_add(acc, ix.lazy[node]);
  return std::max(
      index_range_max(ix, 2 * node, node_lo, mid, lo, hi, child_acc),
      index_range_max(ix, 2 * node + 1, mid + 1, node_hi, lo, hi, child_acc));
}

std::size_t StepProfile::index_first_leaf_below(
    const Index& ix, std::size_t node, std::size_t node_lo,
    std::size_t node_hi, std::size_t lo, std::size_t hi,
    std::int64_t threshold, std::int64_t acc) {
  if (hi < node_lo || node_hi < lo) return kNoLeaf;
  if (sat_add(ix.min[node], acc) >= threshold) return kNoLeaf;
  if (node_lo == node_hi) return node_lo;
  const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
  const std::int64_t child_acc = sat_add(acc, ix.lazy[node]);
  const std::size_t left = index_first_leaf_below(ix, 2 * node, node_lo, mid,
                                                  lo, hi, threshold,
                                                  child_acc);
  if (left != kNoLeaf) return left;
  return index_first_leaf_below(ix, 2 * node + 1, mid + 1, node_hi, lo, hi,
                                threshold, child_acc);
}

std::size_t StepProfile::index_first_leaf_at_least(
    const Index& ix, std::size_t node, std::size_t node_lo,
    std::size_t node_hi, std::size_t lo, std::size_t hi,
    std::int64_t threshold, std::int64_t acc) {
  if (hi < node_lo || node_hi < lo) return kNoLeaf;
  if (sat_add(ix.max[node], acc) < threshold) return kNoLeaf;
  if (node_lo == node_hi) return node_lo;
  const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
  const std::int64_t child_acc = sat_add(acc, ix.lazy[node]);
  const std::size_t left = index_first_leaf_at_least(
      ix, 2 * node, node_lo, mid, lo, hi, threshold, child_acc);
  if (left != kNoLeaf) return left;
  return index_first_leaf_at_least(ix, 2 * node + 1, mid + 1, node_hi, lo,
                                   hi, threshold, child_acc);
}

StepProfile::Wide StepProfile::index_range_sum(const Index& ix,
                                               std::size_t node,
                                               std::size_t node_lo,
                                               std::size_t node_hi,
                                               std::size_t lo, std::size_t hi,
                                               Wide acc, bool& ok) {
  if (hi < node_lo || node_hi < lo) return 0;
  if (lo <= node_lo && node_hi <= hi) {
    Wide result = ix.sum[node];
    if (!wide_mul_add(result, acc, static_cast<Wide>(ix.len[node])))
      ok = false;
    return result;
  }
  const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
  Wide child_acc = acc;
  if (!wide_add(child_acc, static_cast<Wide>(ix.lazy[node]))) ok = false;
  Wide result =
      index_range_sum(ix, 2 * node, node_lo, mid, lo, hi, child_acc, ok);
  if (!wide_add(result, index_range_sum(ix, 2 * node + 1, mid + 1, node_hi,
                                        lo, hi, child_acc, ok)))
    ok = false;
  return result;
}

Time StepProfile::index_accumulate(const Index& ix, std::size_t node,
                                   std::size_t node_lo, std::size_t node_hi,
                                   std::size_t lo, std::size_t hi,
                                   std::int64_t acc, Wide acc_wide,
                                   std::int64_t& remaining, bool& ok) const {
  if (hi < node_lo || node_hi < lo || !ok) return kTimeInfinity;
  const bool covered = lo <= node_lo && node_hi <= hi;
  if (covered && sat_add(ix.min[node], acc) >= 0) {
    // Non-negative span: the positive-rate accumulation equals the range
    // sum and the running total is monotone, so the whole node can be
    // consumed (or identified as containing the crossing) in O(1).
    Wide total = ix.sum[node];
    if (!wide_mul_add(total, acc_wide, static_cast<Wide>(ix.len[node]))) {
      ok = false;
      return kTimeInfinity;
    }
    if (total < static_cast<Wide>(remaining)) {
      // total >= 0 and < remaining <= INT64_MAX: the narrowing is exact.
      // resched-lint: time-arith-audited(total < remaining <= INT64_MAX: narrowing is exact)
      remaining -= static_cast<std::int64_t>(total);
      return kTimeInfinity;
    }
    if (node_lo == node_hi) {
      const Time found =
          scan_accumulate(index_of(ix.times[node_lo]), ix.times[node_lo],
                          index_leaf_end(ix, node_lo), remaining);
      RESCHED_CHECK_MSG(found != kTimeInfinity,
                        "index/leaf disagreement in time_to_accumulate");
      return found;
    }
  } else if (node_lo == node_hi) {
    // Leaf containing negative values: its range sum under-counts the
    // positive-rate accumulation, so walk the real segments instead.
    return scan_accumulate(index_of(ix.times[node_lo]), ix.times[node_lo],
                           index_leaf_end(ix, node_lo), remaining);
  }
  const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
  const std::int64_t child_acc = sat_add(acc, ix.lazy[node]);
  Wide child_wide = acc_wide;
  if (!wide_add(child_wide, static_cast<Wide>(ix.lazy[node]))) {
    ok = false;
    return kTimeInfinity;
  }
  const Time left = index_accumulate(ix, 2 * node, node_lo, mid, lo, hi,
                                     child_acc, child_wide, remaining, ok);
  if (left != kTimeInfinity || !ok) return left;
  return index_accumulate(ix, 2 * node + 1, mid + 1, node_hi, lo, hi,
                          child_acc, child_wide, remaining, ok);
}

// ---------------------------------------------------------------------------
// Windowed queries: indexed descent with linear-scan boundary leaves.
// ---------------------------------------------------------------------------

std::int64_t StepProfile::min_in(Time from, Time to) const {
  RESCHED_REQUIRE_MSG(from < to, "empty window in min_in");
  RESCHED_REQUIRE(from >= 0);
  // Bounded scan: answer narrow windows at exactly the flat-array cost and
  // fall through to the tree only when the window proves wide. The at most
  // kIndexedLeafCutoff wasted visits are dwarfed by what the descent saves.
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  const std::size_t lo_idx = index_of(from);
  const std::size_t scan_stop =
      std::min(steps_.size(), lo_idx + kIndexedLeafCutoff + 1);
  std::int64_t result = values[lo_idx];
  std::size_t i = lo_idx + 1;
  for (; i < scan_stop && times[i] < to; ++i)
    result = std::min(result, values[i]);
  if (i == steps_.size() || times[i] >= to) return result;
  // Wide window: resume with the tree from where the scan stopped, so the
  // scanned prefix is not wasted work.
  return std::min(result, indexed_min_in(times[i], to, i));
}

std::int64_t StepProfile::indexed_min_in(Time from, Time to,
                                         std::size_t lo_idx) const {
  const Index& ix = ensure_index();
  const LeafWindow window = index_leaf_window(ix, from, to);
  if (window.lo_leaf == window.hi_leaf) return scan_min_at(lo_idx, to);
  std::int64_t result = std::numeric_limits<std::int64_t>::max();
  if (window.left_partial)
    result = scan_min_at(lo_idx, index_leaf_end(ix, window.lo_leaf));
  if (window.right_partial)
    result = std::min(result, scan_min(ix.times[window.hi_leaf], to));
  const std::ptrdiff_t full_lo = static_cast<std::ptrdiff_t>(window.lo_leaf) +
                                 (window.left_partial ? 1 : 0);
  const std::ptrdiff_t full_hi = static_cast<std::ptrdiff_t>(window.hi_leaf) -
                                 (window.right_partial ? 1 : 0);
  if (full_lo <= full_hi)
    result = std::min(
        result, index_range_min(ix, 1, 0, ix.cap - 1,
                                static_cast<std::size_t>(full_lo),
                                static_cast<std::size_t>(full_hi), 0));
  return result;
}

std::int64_t StepProfile::max_in(Time from, Time to) const {
  RESCHED_REQUIRE_MSG(from < to, "empty window in max_in");
  RESCHED_REQUIRE(from >= 0);
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  const std::size_t lo_idx = index_of(from);
  const std::size_t scan_stop =
      std::min(steps_.size(), lo_idx + kIndexedLeafCutoff + 1);
  std::int64_t result = values[lo_idx];
  std::size_t i = lo_idx + 1;
  for (; i < scan_stop && times[i] < to; ++i)
    result = std::max(result, values[i]);
  if (i == steps_.size() || times[i] >= to) return result;
  return std::max(result, indexed_max_in(times[i], to, i));
}

std::int64_t StepProfile::indexed_max_in(Time from, Time to,
                                         std::size_t lo_idx) const {
  const Index& ix = ensure_index();
  const LeafWindow window = index_leaf_window(ix, from, to);
  if (window.lo_leaf == window.hi_leaf) return scan_max_at(lo_idx, to);
  std::int64_t result = std::numeric_limits<std::int64_t>::min();
  if (window.left_partial)
    result = scan_max_at(lo_idx, index_leaf_end(ix, window.lo_leaf));
  if (window.right_partial)
    result = std::max(result, scan_max(ix.times[window.hi_leaf], to));
  const std::ptrdiff_t full_lo = static_cast<std::ptrdiff_t>(window.lo_leaf) +
                                 (window.left_partial ? 1 : 0);
  const std::ptrdiff_t full_hi = static_cast<std::ptrdiff_t>(window.hi_leaf) -
                                 (window.right_partial ? 1 : 0);
  if (full_lo <= full_hi)
    result = std::max(
        result, index_range_max(ix, 1, 0, ix.cap - 1,
                                static_cast<std::size_t>(full_lo),
                                static_cast<std::size_t>(full_hi), 0));
  return result;
}

Time StepProfile::first_below(Time from, Time to,
                              std::int64_t threshold) const {
  RESCHED_REQUIRE(from >= 0);
  if (from >= to) return kTimeInfinity;
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  const std::size_t lo_idx = index_of(from);
  if (values[lo_idx] < threshold) return from;
  const std::size_t scan_stop =
      std::min(steps_.size(), lo_idx + kIndexedLeafCutoff + 1);
  std::size_t i = lo_idx + 1;
  for (; i < scan_stop && times[i] < to; ++i)
    if (values[i] < threshold) return times[i];
  if (i == steps_.size() || times[i] >= to) return kTimeInfinity;
  // The scanned prefix is clean; the tree takes over from the stop point.
  return indexed_first_below(times[i], to, threshold, i);
}

Time StepProfile::indexed_first_below(Time from, Time to,
                                      std::int64_t threshold,
                                      std::size_t lo_idx) const {
  const Index& ix = ensure_index();
  const LeafWindow window = index_leaf_window(ix, from, to);
  if (window.lo_leaf == window.hi_leaf)
    return scan_first_below_at(lo_idx, from, to, threshold);
  if (window.left_partial) {
    const Time r = scan_first_below_at(
        lo_idx, from, index_leaf_end(ix, window.lo_leaf), threshold);
    if (r != kTimeInfinity) return r;
  }
  const std::ptrdiff_t full_lo = static_cast<std::ptrdiff_t>(window.lo_leaf) +
                                 (window.left_partial ? 1 : 0);
  const std::ptrdiff_t full_hi = static_cast<std::ptrdiff_t>(window.hi_leaf) -
                                 (window.right_partial ? 1 : 0);
  if (full_lo <= full_hi) {
    const std::size_t j = index_first_leaf_below(
        ix, 1, 0, ix.cap - 1, static_cast<std::size_t>(full_lo),
        static_cast<std::size_t>(full_hi), threshold, 0);
    if (j != kNoLeaf) {
      const Time r =
          scan_first_below(ix.times[j], index_leaf_end(ix, j), threshold);
      RESCHED_CHECK_MSG(r != kTimeInfinity,
                        "index/leaf disagreement in first_below");
      return r;
    }
  }
  if (window.right_partial) {
    const Time r = scan_first_below(ix.times[window.hi_leaf], to, threshold);
    if (r != kTimeInfinity) return r;
  }
  return kTimeInfinity;
}

Time StepProfile::first_at_least(Time from, std::int64_t threshold) const {
  RESCHED_REQUIRE(from >= 0);
  const std::size_t lo_idx = index_of(from);
  if (steps_.size() - lo_idx <= kIndexedLeafCutoff)
    return scan_first_at_least_at(lo_idx, from, threshold);
  const Index& ix = ensure_index();
  const LeafWindow window = index_leaf_window(ix, from, kTimeInfinity);
  if (window.left_partial) {
    // Clipped scan over the remainder of the leaf. index_leaf_end is
    // kTimeInfinity when `from` sits inside the last snapshot leaf (which
    // holds many real segments after incremental splits beyond the last
    // snapshot breakpoint), so the scan then covers the whole tail.
    const Time* times = steps_.times_data();
    const std::int64_t* values = steps_.values_data();
    std::size_t i = lo_idx;
    if (values[i] >= threshold) return from;
    const Time end = index_leaf_end(ix, window.lo_leaf);
    for (++i; i < steps_.size() && times[i] < end; ++i)
      if (values[i] >= threshold) return times[i];
    if (window.lo_leaf == window.hi_leaf) return kTimeInfinity;
  }
  const std::size_t full_lo = window.lo_leaf + (window.left_partial ? 1 : 0);
  const std::size_t j = index_first_leaf_at_least(
      ix, 1, 0, ix.cap - 1, full_lo, window.hi_leaf, threshold, 0);
  if (j == kNoLeaf) return kTimeInfinity;
  const Time r = scan_first_at_least(ix.times[j], threshold);
  RESCHED_CHECK_MSG(r < index_leaf_end(ix, j),
                    "index/leaf disagreement in first_at_least");
  return r;
}

Time StepProfile::next_change_after(Time t) const {
  RESCHED_REQUIRE(t >= 0);
  const std::size_t i = index_of(t);
  return i + 1 < steps_.size() ? steps_.start(i + 1) : kTimeInfinity;
}

std::int64_t StepProfile::integral(Time from, Time to) const {
  RESCHED_REQUIRE(from >= 0 && from <= to);
  RESCHED_REQUIRE_MSG(to < kTimeInfinity, "integral over unbounded window");
  if (from == to) return 0;
  // Bounded scan first (the same hybrid as min_in): short windows never pay
  // for the tree, wide ones hand the rest of the window to the range sum.
  const std::size_t lo_idx = index_of(from);
  const std::size_t scan_stop =
      std::min(steps_.size(), lo_idx + kIndexedLeafCutoff + 1);
  const Time scan_end = (scan_stop < steps_.size())
                            ? std::min(steps_.start(scan_stop), to)
                            : to;
  bool ok = true;
  Wide area = scan_integral_at(lo_idx, from, scan_end, ok);
  if (scan_end < to) {
    const Index& ix = ensure_index();
    if (!ix.sums_ok) {
      // Adversarial magnitudes defeated the 128-bit node sums; the linear
      // scan stays exact.
      if (!wide_add(area, scan_integral_at(scan_stop, scan_end, to, ok)))
        ok = false;
    } else {
      const LeafWindow window = index_leaf_window(ix, scan_end, to);
      if (window.lo_leaf == window.hi_leaf) {
        if (!wide_add(area, scan_integral_at(scan_stop, scan_end, to, ok)))
          ok = false;
      } else {
        if (window.left_partial &&
            !wide_add(area, scan_integral_at(
                                scan_stop, scan_end,
                                index_leaf_end(ix, window.lo_leaf), ok)))
          ok = false;
        const std::ptrdiff_t full_lo =
            static_cast<std::ptrdiff_t>(window.lo_leaf) +
            (window.left_partial ? 1 : 0);
        const std::ptrdiff_t full_hi =
            static_cast<std::ptrdiff_t>(window.hi_leaf) -
            (window.right_partial ? 1 : 0);
        if (full_lo <= full_hi &&
            !wide_add(area,
                      index_range_sum(ix, 1, 0, ix.cap - 1,
                                      static_cast<std::size_t>(full_lo),
                                      static_cast<std::size_t>(full_hi), 0,
                                      ok)))
          ok = false;
        if (window.right_partial) {
          const Time edge = ix.times[window.hi_leaf];
          if (!wide_add(area,
                        scan_integral_at(index_of(edge), edge, to, ok)))
            ok = false;
        }
      }
    }
  }
  if (!ok || area > static_cast<Wide>(kInt64Max) ||
      area < static_cast<Wide>(kInt64Min))
    throw std::overflow_error("profile integral overflows int64");
  return static_cast<std::int64_t>(area);
}

Time StepProfile::time_to_accumulate(Time from, std::int64_t target) const {
  RESCHED_REQUIRE(from >= 0 && target >= 0);
  if (target == 0) return from;
  std::int64_t remaining = target;
  // Bounded scan first: crossings within a few hundred segments (and all
  // small profiles) never touch the tree.
  const std::size_t lo_idx = index_of(from);
  const std::size_t scan_stop =
      std::min(steps_.size(), lo_idx + kIndexedLeafCutoff + 1);
  const Time scan_end =
      (scan_stop < steps_.size()) ? steps_.start(scan_stop) : kTimeInfinity;
  const Time found = scan_accumulate(lo_idx, from, scan_end, remaining);
  if (found != kTimeInfinity || scan_stop == steps_.size()) return found;
  const Index& ix = ensure_index();
  if (!ix.sums_ok)
    return scan_accumulate(scan_stop, scan_end, kTimeInfinity, remaining);
  const std::size_t leaves = ix.times.size();
  std::size_t leaf = index_leaf_of(ix, scan_end);
  if (leaf + 1 >= leaves) {
    // Already inside the unbounded last snapshot leaf; only the exact tail
    // walk knows how to clamp near kTimeInfinity.
    return scan_accumulate(scan_stop, scan_end, kTimeInfinity, remaining);
  }
  if (scan_end > ix.times[leaf]) {
    // Finish the partially entered leaf before the tree takes over.
    const Time leaf_end = index_leaf_end(ix, leaf);
    const Time r = scan_accumulate(scan_stop, scan_end, leaf_end, remaining);
    if (r != kTimeInfinity) return r;
    ++leaf;
  }
  // O(log s) descent over the full leaves; the unbounded last leaf is
  // excluded (its range sum is 0 by construction) and handled by the exact
  // tail walk below.
  bool ok = true;
  if (leaf + 1 < leaves) {
    const Time r = index_accumulate(ix, 1, 0, ix.cap - 1, leaf, leaves - 2,
                                    0, 0, remaining, ok);
    if (!ok) {
      std::int64_t redo = target;
      return scan_accumulate(lo_idx, from, kTimeInfinity, redo);
    }
    if (r != kTimeInfinity) return r;
  }
  const Time tail_start = ix.times[leaves - 1];
  return scan_accumulate(index_of(tail_start), tail_start, kTimeInfinity,
                         remaining);
}

bool StepProfile::is_non_increasing() const noexcept {
  const std::int64_t* values = steps_.values_data();
  for (std::size_t i = 1; i < steps_.size(); ++i)
    if (values[i] > values[i - 1]) return false;
  return true;
}

bool StepProfile::is_non_decreasing() const noexcept {
  const std::int64_t* values = steps_.values_data();
  for (std::size_t i = 1; i < steps_.size(); ++i)
    if (values[i] < values[i - 1]) return false;
  return true;
}

std::int64_t StepProfile::min_value() const noexcept {
  const std::int64_t* values = steps_.values_data();
  std::int64_t result = values[0];
  for (std::size_t i = 1; i < steps_.size(); ++i)
    result = std::min(result, values[i]);
  return result;
}

std::int64_t StepProfile::max_value() const noexcept {
  const std::int64_t* values = steps_.values_data();
  std::int64_t result = values[0];
  for (std::size_t i = 1; i < steps_.size(); ++i)
    result = std::max(result, values[i]);
  return result;
}

std::int64_t StepProfile::final_value() const noexcept {
  return steps_.back_value();
}

std::size_t StepProfile::segment_count() const noexcept {
  return steps_.size();
}

std::vector<StepProfile::Segment> StepProfile::segments() const {
  std::vector<Segment> out;
  out.reserve(steps_.size());
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const Time end =
        (i + 1 < steps_.size()) ? steps_.start(i + 1) : kTimeInfinity;
    out.push_back(Segment{steps_.start(i), end, steps_.value(i)});
  }
  return out;
}

std::vector<StepProfile::Segment> StepProfile::segments_in(Time from,
                                                           Time to) const {
  RESCHED_REQUIRE(from >= 0 && from <= to);
  std::vector<Segment> out;
  if (from == to) return out;
  std::size_t i = index_of(from);
  Time cursor = from;
  while (cursor < to && i < steps_.size()) {
    const Time seg_end =
        (i + 1 < steps_.size()) ? std::min(steps_.start(i + 1), to) : to;
    out.push_back(Segment{cursor, seg_end, steps_.value(i)});
    cursor = seg_end;
    ++i;
  }
  return out;
}

StepProfile StepProfile::plus(const StepProfile& other) const {
  StepProfile result(0);
  result.steps_.clear();
  result.steps_.reserve(steps_.size() + other.steps_.size());
  std::size_t a = 0;
  std::size_t b = 0;
  std::int64_t va = steps_.value(0);
  std::int64_t vb = other.steps_.value(0);
  // Merge the two breakpoint sets; emitted starts are strictly increasing.
  while (a < steps_.size() || b < other.steps_.size()) {
    Time t;
    if (b == other.steps_.size() ||
        (a < steps_.size() && steps_.start(a) <= other.steps_.start(b))) {
      t = steps_.start(a);
      va = steps_.value(a);
      if (b < other.steps_.size() && other.steps_.start(b) == t)
        vb = other.steps_.value(b++);
      ++a;
    } else {
      t = other.steps_.start(b);
      vb = other.steps_.value(b++);
    }
    const std::int64_t v = checked_add(va, vb);
    if (result.steps_.empty() || result.steps_.back_value() != v)
      result.steps_.push_back(t, v);
  }
  return result;
}

StepProfile StepProfile::minus(const StepProfile& other) const {
  StepProfile negated = other;  // copying drops the (now stale) index cache
  std::int64_t* values = negated.steps_.values_data();
  for (std::size_t i = 0; i < negated.steps_.size(); ++i)
    values[i] = checked_neg(values[i]);
  return plus(negated);
}

}  // namespace resched
