// SegStore: the segment storage engine under StepProfile (ROADMAP item 5).
//
// Structure-of-arrays with small-buffer optimization, stored two-ended.
// Starts and values live in two parallel contiguous int64 arrays instead of
// an array of {start, value} pairs:
//
//  * SoA -- the profile hot paths are asymmetric: binary searches
//    (index_of) touch only starts, while the windowed queries' linear
//    scans stream mostly values. Splitting the arrays halves the cache
//    traffic of both.
//  * SBO -- profiles of up to kInlineSegments segments live entirely inside
//    the object: the thousands of short-lived profiles churn repair and
//    backfill probes create never touch the heap. The inline capacity was
//    picked by instrumentation (see BUILDING.md "Memory subsystem");
//    persistent profiles spill immediately regardless of N, so N keeps
//    small profiles off the heap without bloating every profile.
//  * Two-ended -- the live slots are [front, front + size) of a block of
//    `capacity()` slots, with free slots on both sides. Every edit (insert,
//    erase, push_back) turns a range [lo, hi) into n slots by shifting
//    whichever side of it is shorter: the lo slots before it or the
//    size - hi slots after it (the left side must be shorter by more than
//    kShiftBias slots, so small stores shift like a one-ended array and
//    their memmove direction stays predictable). Event-loop
//    schedulers commit at their clock, near the front of the profile, so
//    a split there moves a handful of slots instead of the whole live
//    tail, and compact_before's prefix erase is O(1) (it only advances
//    front).
//
// Room rule. When the shorter side has no free slots for a growing edit, a
// heap store never shifts its longer side instead. It re-centres: in place
// while the result fills at most three quarters of the block, otherwise
// into a fresh block of twice the capacity (or exactly the result, if
// larger). Either way the result sits centred, with at least an eighth of
// the block -- a sixth of the contents' size -- free on each side (the
// in-place case) or at least half of the contents' size (a doubled block).
// Amortization: a re-centre moves O(size) slots, and the side that ran out
// must then take at least size/6 slots of net growth before the next
// re-centre or growth, so each edit costs O(min(lo, size - hi) +
// kShiftBias) amortized.
// The rule also pins capacity: a store that cycles prefix erases with back
// inserts (history compaction in the service loop) re-centres in place
// instead of growing, and a block only doubles once the contents exceed
// three quarters of it, so capacity stays within 8/3 of the high-water
// size. An inline store re-centres within its buffer whenever the result
// fits (it moves at most kInlineSegments slots): a store that never holds
// more than kInlineSegments slots never allocates.
//
// Heap spills allocate with std::malloc + note_alloc(), never operator new,
// so binaries with the global alloc hook (bench/alloc_hook.cpp) count each
// heap event exactly once. A store never shrinks its heap block; capacity
// is the high-water mark, which is exactly what the steady-state service
// decision needs to stay allocation-free.
//
// Pointer contract: times_data()/values_data() point at the first live
// slot and stay valid until the next mutation of the store (any edit can
// move the front), not just the next capacity change. StepProfile's
// callers are read-only scans between mutations.
//
// The API is deliberately primitive -- indices, not iterators -- because
// StepProfile is its only intended client and every operation maps to at
// most two memmoves per array.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "core/arena.hpp"
#include "core/types.hpp"

namespace resched {

class SegStore {
 public:
  // Inline capacity, sized from measurement (see the header comment).
  static constexpr std::size_t kInlineSegments = 8;
  // An edit shifts its left side only when that side is shorter than the
  // right by more than this many slots. Which side moves decides the
  // memmove's direction; on small stores edited at random positions a
  // 50/50 direction costs more in mispredictions than shifting up to 32
  // extra slots (measured: 6- and 24-slot stores edit ~8 ns slower per
  // op unbiased, on par with a one-ended store at 32).
  static constexpr std::size_t kShiftBias = 32;

  SegStore() noexcept = default;

  SegStore(const SegStore& other) { assign_range(other, 0, other.size_); }

  SegStore& operator=(const SegStore& other) {
    if (this != &other) assign_range(other, 0, other.size_);
    return *this;
  }

  SegStore(SegStore&& other) noexcept { steal(other); }

  SegStore& operator=(SegStore&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }

  ~SegStore() { release(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  [[nodiscard]] Time start(std::size_t i) const noexcept { return times_[i]; }
  [[nodiscard]] std::int64_t value(std::size_t i) const noexcept {
    return values_[i];
  }
  void set_start(std::size_t i, Time t) noexcept { times_[i] = t; }
  void set_value(std::size_t i, std::int64_t v) noexcept { values_[i] = v; }
  void add_value(std::size_t i, std::int64_t delta) noexcept {
    // resched-lint: time-arith-audited(heights capacity-bounded; deltas validated upstream)
    values_[i] += delta;
  }
  [[nodiscard]] std::int64_t back_value() const noexcept {
    return values_[size_ - 1];
  }

  // Contiguous SoA views of the live slots; valid until the next mutation.
  [[nodiscard]] const Time* times_data() const noexcept { return times_; }
  [[nodiscard]] const std::int64_t* values_data() const noexcept {
    return values_;
  }
  [[nodiscard]] std::int64_t* values_data() noexcept { return values_; }

  void clear() noexcept {
    size_ = 0;
    set_front(0);
  }

  // Room for n slots filled by push_back without a reallocation.
  void reserve(std::size_t n) {
    if (n > cap_) relocate(std::max(cap_ * 2, n), 0, size_, size_, 0);
  }

  void push_back(Time t, std::int64_t v) {
    if (front_ + size_ == cap_) resize_range(size_, size_, 1);
    else ++size_;
    times_[size_ - 1] = t;
    values_[size_ - 1] = v;
  }

  void insert(std::size_t pos, Time t, std::int64_t v) {
    resize_range(pos, pos, 1);
    times_[pos] = t;
    values_[pos] = v;
  }

  void erase(std::size_t pos) { erase(pos, pos + 1); }

  // Erases [lo, hi).
  void erase(std::size_t lo, std::size_t hi) { resize_range(lo, hi, 0); }

  // Replaces contents with src's [lo, hi) slice, centred in this store's
  // block. Reuses capacity.
  void assign_range(const SegStore& src, std::size_t lo, std::size_t hi) {
    const std::size_t n = hi - lo;
    // A fresh block takes none of the old contents (they are replaced).
    if (n > cap_) relocate(std::max(cap_ * 2, n), 0, 0, size_, 0);
    set_front((cap_ - n) / 2);
    std::memcpy(times_, src.times_ + lo, n * sizeof(Time));
    std::memcpy(values_, src.values_ + lo, n * sizeof(std::int64_t));
    size_ = n;
  }

  // First index whose start is > t (== std::upper_bound on the starts).
  [[nodiscard]] std::size_t upper_bound_start(Time t) const noexcept {
    return static_cast<std::size_t>(
        std::upper_bound(times_, times_ + size_, t) - times_);
  }

  // Heap blocks this store has allocated (diagnostic: copies start at zero,
  // moves carry it).
  [[nodiscard]] std::uint64_t alloc_count() const noexcept { return allocs_; }

  // Live slots this store's edits have moved (diagnostic, same copy/move
  // semantics as alloc_count): shifted sides, plus the whole contents on
  // every re-centre or reallocation. Copying new content in (assign_range)
  // is not a move.
  [[nodiscard]] std::uint64_t moved_slots() const noexcept { return moved_; }

  friend bool operator==(const SegStore& a, const SegStore& b) noexcept {
    return a.size_ == b.size_ &&
           std::memcmp(a.times_, b.times_, a.size_ * sizeof(Time)) == 0 &&
           std::memcmp(a.values_, b.values_,
                       a.size_ * sizeof(std::int64_t)) == 0;
  }

 private:
  [[nodiscard]] bool inline_store() const noexcept { return heap_ == nullptr; }

  // Points the live window at block slot `front`.
  void set_front(std::size_t front) noexcept {
    Time* times = inline_store() ? inline_times_ : heap_;
    std::int64_t* values = inline_store() ? inline_values_ : heap_ + cap_;
    times_ = times + front;
    values_ = values + front;
    front_ = front;
  }

  // Moves count live slots from live index `from` to live index `to`, in
  // both arrays; `to` may lie before the first live slot (down to -front_)
  // or past the last, and the ranges may overlap.
  void move_live(std::ptrdiff_t from, std::ptrdiff_t to,
                 std::size_t count) noexcept {
    std::memmove(times_ + to, times_ + from, count * sizeof(Time));
    std::memmove(values_ + to, values_ + from, count * sizeof(std::int64_t));
    moved_ += count;
  }

  // The one edit primitive: turns live slots [lo, hi) into n slots (left
  // unset) by shifting the shorter side, re-centring when that side has no
  // room (see "Room rule" in the header comment).
  void resize_range(std::size_t lo, std::size_t hi, std::size_t n) {
    const auto grow = static_cast<std::ptrdiff_t>(n) -
                      static_cast<std::ptrdiff_t>(hi - lo);
    if (grow == 0) return;
    const std::size_t right = size_ - hi;
    // Shift the left side (the first lo slots) or the right side (the
    // last `right` slots), whichever is shorter (see kShiftBias).
    const bool shift_left = lo + kShiftBias < right;
    const std::size_t room = shift_left ? front_ : cap_ - front_ - size_;
    if (grow > 0 && room < static_cast<std::size_t>(grow)) {
      const std::size_t new_size = size_ + static_cast<std::size_t>(grow);
      const std::size_t in_place_limit =
          inline_store() ? cap_ : cap_ - cap_ / 4;
      const std::size_t new_cap =
          new_size <= in_place_limit ? cap_ : std::max(cap_ * 2, new_size);
      relocate(new_cap, (new_cap - new_size) / 2, lo, hi, n);
      return;
    }
    // The left side moves by -grow and takes the front with it; the right
    // side moves by +grow.
    const auto from = shift_left ? std::ptrdiff_t{0}
                                 : static_cast<std::ptrdiff_t>(hi);
    const std::ptrdiff_t front_shift = shift_left ? -grow : 0;
    move_live(from, from + (shift_left ? -grow : grow),
              shift_left ? lo : right);
    times_ += front_shift;
    values_ += front_shift;
    front_ += static_cast<std::size_t>(front_shift);  // wraps back if < 0
    size_ += static_cast<std::size_t>(grow);  // wraps back if < 0
  }

  // Lays the contents out at block slot new_front of a block of new_cap
  // slots -- the current block when new_cap == cap_ -- with live slots
  // [lo, hi) turned into n unset slots.
  void relocate(std::size_t new_cap, std::size_t new_front, std::size_t lo,
                std::size_t hi, std::size_t n) {
    const std::size_t right = size_ - hi;
    const std::size_t right_to = new_front + lo + n;
    if (new_cap == cap_) {
      // In place. Move first the piece travelling away from the other, so
      // neither overwrites the other's source.
      const auto shift = static_cast<std::ptrdiff_t>(new_front) -
                         static_cast<std::ptrdiff_t>(front_);
      const auto ihi = static_cast<std::ptrdiff_t>(hi);
      const auto iright_to = static_cast<std::ptrdiff_t>(lo + n) + shift;
      if (shift > 0) {
        move_live(ihi, iright_to, right);
        move_live(0, shift, lo);
      } else {
        move_live(0, shift, lo);
        move_live(ihi, iright_to, right);
      }
    } else {
      // One block, times first then values: a single allocation per spill.
      auto* block = static_cast<std::int64_t*>(
          std::malloc(2 * new_cap * sizeof(std::int64_t)));
      if (block == nullptr) throw std::bad_alloc();
      note_alloc(2 * new_cap * sizeof(std::int64_t));
      ++allocs_;
      Time* times = block;
      std::int64_t* values = block + new_cap;
      std::memcpy(times + new_front, times_, lo * sizeof(Time));
      std::memcpy(values + new_front, values_, lo * sizeof(std::int64_t));
      std::memcpy(times + right_to, times_ + hi, right * sizeof(Time));
      std::memcpy(values + right_to, values_ + hi,
                  right * sizeof(std::int64_t));
      moved_ += lo + right;
      release();
      heap_ = block;
      cap_ = new_cap;
    }
    size_ = size_ - (hi - lo) + n;
    set_front(new_front);
  }

  void release() noexcept { std::free(heap_); }

  // Move support: steal other's heap block, or memcpy its inline contents;
  // other is left empty on its inline buffer either way.
  void steal(SegStore& other) noexcept {
    size_ = other.size_;
    allocs_ = other.allocs_;
    moved_ = other.moved_;
    if (other.inline_store()) {
      cap_ = kInlineSegments;
      heap_ = nullptr;
      std::memcpy(inline_times_, other.times_, size_ * sizeof(Time));
      std::memcpy(inline_values_, other.values_,
                  size_ * sizeof(std::int64_t));
      set_front(0);
    } else {
      cap_ = other.cap_;
      heap_ = other.heap_;
      times_ = other.times_;
      values_ = other.values_;
      front_ = other.front_;
      other.cap_ = kInlineSegments;
      other.heap_ = nullptr;
    }
    other.size_ = 0;
    other.allocs_ = 0;
    other.moved_ = 0;
    other.set_front(0);
  }

  std::size_t size_ = 0;
  std::size_t cap_ = kInlineSegments;
  std::size_t front_ = 0;  // block slot of live slot 0
  Time* times_ = inline_times_;  // live slot 0 of the starts
  std::int64_t* values_ = inline_values_;  // live slot 0 of the values
  std::int64_t* heap_ = nullptr;  // heap block (times, then values), or null
  std::uint64_t allocs_ = 0;
  std::uint64_t moved_ = 0;
  Time inline_times_[kInlineSegments];
  std::int64_t inline_values_[kInlineSegments];
};

}  // namespace resched
