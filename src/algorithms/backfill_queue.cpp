#include "algorithms/backfill_queue.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace resched {

BackfillQueue::BackfillQueue(ProcCount max_q, std::size_t max_jobs,
                             Arena* scratch)
    : buckets_(ArenaAlloc<Bucket>(scratch)),
      heap_(ArenaAlloc<Head>(scratch)),
      max_q_(max_q) {
  RESCHED_REQUIRE_MSG(max_q >= 1, "backfill queue needs max_q >= 1");
  max_buckets_ = std::min(static_cast<std::size_t>(max_q), max_jobs);
  buckets_.reserve(max_buckets_);
  heap_.reserve(max_buckets_);
}

void BackfillQueue::insert(JobId id, std::int64_t rank, ProcCount q) {
  RESCHED_REQUIRE_MSG(!pass_open_, "insert during an open pass");
  RESCHED_REQUIRE(q >= 1 && q <= max_q_);
  auto slot = std::lower_bound(
      buckets_.begin(), buckets_.end(), q,
      [](const Bucket& bucket, ProcCount value) { return bucket.q < value; });
  if (slot == buckets_.end() || slot->q != q) {
    // A new demand. Slots shift, which is safe: no pass is open, so no heap
    // entry or candidate refers to one.
    RESCHED_REQUIRE_MSG(buckets_.size() < max_buckets_,
                        "more distinct demands than max_jobs inserts allow");
    slot = buckets_.emplace(slot, q, buckets_.get_allocator().arena());
  }
  ScratchVec<Entry>& items = slot->items;
  // Ranks arrive mostly in increasing order (release-sorted feeds), so the
  // binary search almost always lands at the back.
  const auto at = std::lower_bound(
      items.begin(), items.end(), rank,
      [](const Entry& entry, std::int64_t value) { return entry.rank < value; });
  items.insert(at, Entry{id, rank, q});
  ++size_;
}

void BackfillQueue::begin_pass() {
  RESCHED_REQUIRE_MSG(!pass_open_, "pass already open");
  pass_open_ = true;
  current_ = kNoCandidate;
  heap_.clear();
  for (std::size_t slot = 0; slot < buckets_.size(); ++slot) {
    if (buckets_[slot].items.empty()) continue;
    heap_.push_back(Head{buckets_[slot].items.front().rank, slot});
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

std::optional<BackfillQueue::Entry> BackfillQueue::next(
    std::int64_t capacity, bool ignore_capacity) {
  RESCHED_ASSERT(pass_open_ && current_ == kNoCandidate);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const Head head = heap_.back();
    heap_.pop_back();
    const Bucket& bucket = buckets_[head.slot];
    if (!ignore_capacity && bucket.q > capacity) {
      // Retire the bucket for this pass: capacity at the event time cannot
      // come back up, so none of its jobs can start (see header sketch).
      continue;
    }
    current_ = head.slot;
    return bucket.items[bucket.read];
  }
  return std::nullopt;
}

void BackfillQueue::advance(Bucket& bucket) {
  if (bucket.read < bucket.items.size()) {
    heap_.push_back(Head{bucket.items[bucket.read].rank, current_});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  current_ = kNoCandidate;
}

void BackfillQueue::keep() {
  RESCHED_ASSERT(pass_open_ && current_ != kNoCandidate);
  Bucket& bucket = buckets_[current_];
  bucket.items[bucket.write++] = bucket.items[bucket.read++];
  advance(bucket);
}

void BackfillQueue::take() {
  RESCHED_ASSERT(pass_open_ && current_ != kNoCandidate);
  Bucket& bucket = buckets_[current_];
  ++bucket.read;
  --size_;
  advance(bucket);
}

void BackfillQueue::end_pass() {
  RESCHED_REQUIRE_MSG(pass_open_ && current_ == kNoCandidate,
                      "end_pass with an unanswered candidate");
  for (Bucket& bucket : buckets_) {
    // Survivors [0, write) were already compacted; shift the unexamined
    // tail [read, end) down next to them. Buckets the pass never reached
    // have read == write == 0.
    if (bucket.write != bucket.read)
      bucket.items.erase(
          bucket.items.begin() + static_cast<std::ptrdiff_t>(bucket.write),
          bucket.items.begin() + static_cast<std::ptrdiff_t>(bucket.read));
    bucket.read = 0;
    bucket.write = 0;
  }
  heap_.clear();
  pass_open_ = false;
}

}  // namespace resched
