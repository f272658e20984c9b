// Event-indexed pending structures shared by the list/backfilling
// schedulers (lsrc.cpp, easy_bf.cpp).
//
// Both schedulers are event loops: at every capacity event t they walk
// their pending jobs in a fixed global order (priority-list rank for LSRC,
// FCFS arrival rank for EASY) and start whatever fits. The seed
// implementations rescanned the *whole* pending queue at every event --
// O(n) probes per event even though a job needing q processors cannot
// possibly start while free capacity at t is below q.
//
// BackfillQueue removes exactly that waste while reproducing the rescan's
// observable behavior bit-for-bit (the golden hashes in
// test_prop_scheduler_equiv pin this):
//
//   * pending jobs live in buckets keyed by their processor demand q, each
//     bucket sorted by the scheduler's rank. Buckets exist only for demands
//     that were actually inserted: the bucket store is a vector sorted by q
//     (a new demand costs one binary search and a shift of the buckets
//     above it), sized once at construction for min(max_q, max_jobs)
//     distinct demands, and heap entries carry the bucket's slot;
//   * a capacity event opens a *pass*: the buckets whose threshold the
//     current free capacity reaches (q <= capacity at t) are merged
//     rank-order through a small binary heap, so candidates come out in
//     exactly the order the linear rescan would have examined them;
//   * a bucket whose head surfaces with q > capacity is retired for the
//     rest of the pass: the rescan would have probed each of its jobs only
//     to fail fits_at immediately (capacity at t is the minimum over the
//     job's window, so value-at-t below q already decides it). Capacity at
//     t never rises within a pass -- commits only subtract, and EASY's
//     backfill admission is a read-only query that never touches the
//     profile -- so retirement is permanent for the pass.
//
// Cost: with B distinct demands inserted so far (B <= min(max_q, n); a
// bucket emptied by take() stays, keeping its capacity, and is skipped in
// O(1)), a pass costs O(B + candidates popped x log B) and construction
// O(1) -- independent of the machine width max_q. The service's
// powers-of-two widths give B <= 9 at m = 256, where a bucket per value
// q = 0..m would touch all 257 buckets on every pass.
//
// Equivalence sketch: a pass examines precisely the pending jobs the
// rescan would have examined minus jobs that provably fail their capacity
// precheck, in the same order, against the same FreeProfile state;
// committed jobs and their commit order therefore coincide, and by
// induction over events the whole schedule does.
//
// EventTimes replaces the schedulers' raw std::priority_queue<Time> wake-up
// heap: release/completion collisions previously piled up as duplicate
// entries that each cost a heap pop; the ordered-set representation
// deduplicates on insert and consumes a whole stale prefix per advance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <set>
#include <vector>

#include "core/arena.hpp"
#include "core/types.hpp"

namespace resched {

class BackfillQueue {
 public:
  struct Entry {
    JobId id;
    std::int64_t rank;  // global examination order; unique per job
    ProcCount q;
  };

  // max_q: largest processor demand that will ever be inserted (the
  // instance's machine count); max_jobs: how many jobs will ever be
  // inserted. Together they bound the distinct demands, which sizes the
  // bucket store and merge heap once, here. With a scratch arena, every
  // internal buffer (buckets, merge heap) is bump-allocated from it -- the
  // replan hot path; null = plain counted heap (batch schedule()).
  BackfillQueue(ProcCount max_q, std::size_t max_jobs,
                Arena* scratch = nullptr);

  // Inserts a pending job. Must not be called while a pass is open.
  void insert(JobId id, std::int64_t rank, ProcCount q);

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  // Pass protocol, one pass per capacity event:
  //   queue.begin_pass();
  //   while (auto e = queue.next(capacity)) { ...; queue.keep() or take(); }
  //   queue.end_pass();
  // Every popped candidate must be answered with exactly one keep()/take()
  // before the next next() call. `capacity` is the caller-maintained free
  // capacity at the event time (decremented by q on every commit);
  // ignore_capacity pops the globally lowest-ranked job regardless of its
  // bucket's threshold (EASY's protected head).
  void begin_pass();
  [[nodiscard]] std::optional<Entry> next(std::int64_t capacity,
                                          bool ignore_capacity = false);
  void keep();
  void take();
  void end_pass();

 private:
  struct Bucket {
    Bucket(ProcCount demand, Arena* scratch)
        : q(demand), items(ArenaAlloc<Entry>(scratch)) {}
    ProcCount q;
    ScratchVec<Entry> items;   // sorted by rank
    std::size_t read = 0;      // pass cursors: next candidate / survivor slot
    std::size_t write = 0;     // (both 0 outside a pass)
  };

  // Heap item: the head rank of a live bucket. Min-heap by rank (ranks are
  // unique, so the slot never tiebreaks). A bucket has at most one head in
  // the heap, so the heap never outgrows the bucket store.
  struct Head {
    std::int64_t rank;
    std::size_t slot;
    friend bool operator>(const Head& a, const Head& b) {
      return a.rank > b.rank;
    }
  };

  static constexpr std::size_t kNoCandidate = static_cast<std::size_t>(-1);

  // Moves the answered candidate's bucket on to its next job, if any.
  void advance(Bucket& bucket);

  ScratchVec<Bucket> buckets_;          // one per inserted demand, by q
  ScratchVec<Head> heap_;               // std::push_heap/pop_heap, min by rank
  ProcCount max_q_;
  std::size_t max_buckets_ = 0;         // min(max_q, max_jobs)
  std::size_t size_ = 0;
  std::size_t current_ = kNoCandidate;  // slot of the last popped candidate
  bool pass_open_ = false;
};

// Deduplicated min-queue of wake-up times for event-driven schedulers.
// With a scratch arena the set's nodes come from the bump allocator
// (erased nodes are not individually reclaimed -- the arena reset at the
// end of the decision takes them all); null = plain counted heap.
class EventTimes {
 public:
  explicit EventTimes(Arena* scratch = nullptr)
      : times_(std::less<Time>(), ArenaAlloc<Time>(scratch)) {}

  // Records a wake-up; duplicates coalesce.
  void push(Time t) { times_.insert(t); }

  // Smallest recorded time strictly greater than t, or kTimeInfinity.
  // Consumes everything up to and including the returned time.
  Time next_after(Time t) {
    const auto it = times_.upper_bound(t);
    if (it == times_.end()) {
      times_.clear();
      return kTimeInfinity;
    }
    const Time next = *it;
    times_.erase(times_.begin(), std::next(it));
    return next;
  }

 private:
  std::set<Time, std::less<Time>, ArenaAlloc<Time>> times_;
};

}  // namespace resched
