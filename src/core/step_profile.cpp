#include "core/step_profile.hpp"

#include <algorithm>
#include <limits>

#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {

namespace {

// 128-bit checked helpers for integral(). A single int64 * int64 product
// always fits (|v| * |len| < 2^126), so only the additions can overflow;
// they report it instead of wrapping.
using Wide = __int128;

[[nodiscard]] bool wide_add(Wide& a, Wide b) noexcept {
  return !__builtin_add_overflow(a, b, &a);
}

Wide wide_mul(std::int64_t a, Time b) noexcept {
  return static_cast<Wide>(a) * static_cast<Wide>(b);
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
  RESCHED_REQUIRE_MSG(from >= 0, "profile add with negative start");
  if (from >= to || delta == 0) return;
  // Strong exception guarantee: probe every affected segment's checked
  // addition before the first structural change. Without this, an overflow
  // mid-window would throw with partial deltas applied and the split
  // breakpoints uncoalesced -- a silently non-canonical profile.
  const std::size_t region = index_of(from);
  for (std::size_t i = region; i < steps_.size() && steps_.start(i) < to; ++i)
    (void)checked_add(steps_.value(i), delta);
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
  ++version_;
  return i;
}

// ---------------------------------------------------------------------------
// Windowed queries: one binary search for the segment containing `from`,
// then a linear scan. Each hoists the SoA arrays once and streams the value
// array contiguously -- the scan this layout exists for.
// ---------------------------------------------------------------------------

std::int64_t StepProfile::min_in(Time from, Time to) const {
  RESCHED_REQUIRE_MSG(from < to, "empty window in min_in");
  RESCHED_REQUIRE(from >= 0);
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  std::size_t i = index_of(from);
  std::int64_t result = values[i];
  for (++i; i < steps_.size() && times[i] < to; ++i)
    result = std::min(result, values[i]);
  return result;
}

std::int64_t StepProfile::max_in(Time from, Time to) const {
  RESCHED_REQUIRE_MSG(from < to, "empty window in max_in");
  RESCHED_REQUIRE(from >= 0);
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  std::size_t i = index_of(from);
  std::int64_t result = values[i];
  for (++i; i < steps_.size() && times[i] < to; ++i)
    result = std::max(result, values[i]);
  return result;
}

Time StepProfile::first_below(Time from, Time to,
                              std::int64_t threshold) const {
  RESCHED_REQUIRE(from >= 0);
  if (from >= to) return kTimeInfinity;
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  std::size_t i = index_of(from);
  if (values[i] < threshold) return from;
  for (++i; i < steps_.size() && times[i] < to; ++i)
    if (values[i] < threshold) return times[i];
  return kTimeInfinity;
}

Time StepProfile::first_at_least(Time from, std::int64_t threshold) const {
  RESCHED_REQUIRE(from >= 0);
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  std::size_t i = index_of(from);
  if (values[i] >= threshold) return from;
  for (++i; i < steps_.size(); ++i)
    if (values[i] >= threshold) return times[i];
  return kTimeInfinity;
}

Time StepProfile::next_change_after(Time t) const {
  RESCHED_REQUIRE(t >= 0);
  const std::size_t i = index_of(t);
  return i + 1 < steps_.size() ? steps_.start(i + 1) : kTimeInfinity;
}

std::int64_t StepProfile::integral(Time from, Time to) const {
  RESCHED_REQUIRE(from >= 0 && from <= to);
  RESCHED_REQUIRE_MSG(to < kTimeInfinity, "integral over unbounded window");
  // Exact 128-bit accumulation; overflow of the accumulator itself (only
  // adversarial magnitudes) or of the int64 result throws.
  bool ok = true;
  Wide area = 0;
  Time cursor = from;
  for (std::size_t i = index_of(from); cursor < to; ++i) {
    const Time seg_end =
        (i + 1 < steps_.size()) ? std::min(steps_.start(i + 1), to) : to;
    // resched-lint: time-arith-audited(wide_add/wide_mul detect 128-bit overflow here)
    if (!wide_add(area, wide_mul(steps_.value(i), seg_end - cursor)))
      ok = false;
    cursor = seg_end;
  }
  if (!ok || area > static_cast<Wide>(kInt64Max) ||
      area < static_cast<Wide>(kInt64Min))
    throw std::overflow_error("profile integral overflows int64");
  return static_cast<std::int64_t>(area);
}

Time StepProfile::time_to_accumulate(Time from, std::int64_t target) const {
  RESCHED_REQUIRE(from >= 0 && target >= 0);
  if (target == 0) return from;
  // Positive-rate accumulation from the segment containing `from` until the
  // target is paid off or an all-deficient tail is reached.
  std::int64_t remaining = target;
  Time cursor = from;
  std::size_t i = index_of(from);
  while (true) {
    if (cursor >= kTimeInfinity) return kTimeInfinity;
    const Time seg_end = (i + 1 == steps_.size())
                             ? kTimeInfinity
                             : std::min(steps_.start(i + 1), kTimeInfinity);
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
  StepProfile negated = other;
  std::int64_t* values = negated.steps_.values_data();
  for (std::size_t i = 0; i < negated.steps_.size(); ++i)
    values[i] = checked_neg(values[i]);
  return plus(negated);
}

}  // namespace resched
