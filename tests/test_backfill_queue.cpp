#include "algorithms/backfill_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

using Entry = BackfillQueue::Entry;

// The behavior BackfillQueue replaces: every pass walks the whole pending
// list in rank order and offers each job whose demand the current capacity
// covers (or any job, for an ignore_capacity pop).
class LinearRescan {
 public:
  void insert(JobId id, std::int64_t rank, ProcCount q) {
    pending_.push_back(Entry{id, rank, q});
  }

  void begin_pass() {
    std::sort(pending_.begin(), pending_.end(),
              [](const Entry& a, const Entry& b) { return a.rank < b.rank; });
    cursor_ = 0;
  }

  std::optional<Entry> next(std::int64_t capacity, bool ignore_capacity) {
    while (cursor_ < pending_.size()) {
      const Entry& entry = pending_[cursor_++];
      if (ignore_capacity || entry.q <= capacity) return entry;
    }
    return std::nullopt;
  }

  void take() {
    pending_.erase(pending_.begin() +
                   static_cast<std::ptrdiff_t>(cursor_ - 1));
    --cursor_;
  }

  [[nodiscard]] std::size_t size() const { return pending_.size(); }

 private:
  std::vector<Entry> pending_;
  std::size_t cursor_ = 0;
};

bool same(const std::optional<Entry>& a, const std::optional<Entry>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->id == b->id && a->rank == b->rank && a->q == b->q);
}

struct Demands {
  const char* name;
  ProcCount max_q;
  bool powers_of_two;  // q in {1, 2, 4, ..., max_q}; else every q in 1..max_q
};

ProcCount draw_demand(Prng& prng, const Demands& demands) {
  if (!demands.powers_of_two)
    return static_cast<ProcCount>(prng.uniform_int(1, demands.max_q));
  int bits = 0;
  while ((ProcCount{1} << (bits + 1)) <= demands.max_q) ++bits;
  return ProcCount{1} << prng.uniform_int(0, bits);
}

struct Case {
  Demands demands;
  bool arena;
};

class BackfillQueueDifferential : public ::testing::TestWithParam<Case> {};

// Random insert/keep/take sequences against the linear rescan. A pass
// follows EASY's shape: a prefix of ignore_capacity head pops (taking the
// head while it fits, keeping it and leaving the prefix when it does not),
// then capacity-gated pops. Capacity never rises within a pass -- it drops
// by q on every take and sometimes by an arbitrary amount in between.
TEST_P(BackfillQueueDifferential, MatchesLinearRescan) {
  const Case c = GetParam();
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Prng prng(seed * 7919);
    constexpr std::size_t kInserts = 200;
    Arena arena;
    BackfillQueue queue(c.demands.max_q, kInserts, c.arena ? &arena : nullptr);
    LinearRescan model;

    std::vector<std::int64_t> ranks(kInserts);
    std::iota(ranks.begin(), ranks.end(), std::int64_t{0});
    prng.shuffle(ranks);

    std::size_t inserted = 0;
    int pass = 0;
    while (inserted < kInserts || !queue.empty()) {
      ++pass;
      const auto batch = static_cast<std::size_t>(prng.uniform_int(0, 12));
      for (std::size_t k = 0; k < batch && inserted < kInserts; ++k) {
        const auto id = static_cast<JobId>(inserted);
        const ProcCount q = draw_demand(prng, c.demands);
        queue.insert(id, ranks[inserted], q);
        model.insert(id, ranks[inserted], q);
        ++inserted;
      }
      ASSERT_EQ(queue.size(), model.size());

      // Late passes run with full capacity so the queue drains.
      std::int64_t capacity = inserted == kInserts && pass % 4 == 0
                                  ? c.demands.max_q
                                  : prng.uniform_int(0, c.demands.max_q);
      bool head_mode = prng.chance(0.5);
      queue.begin_pass();
      model.begin_pass();
      for (;;) {
        const auto got = queue.next(capacity, head_mode);
        const auto want = model.next(capacity, head_mode);
        ASSERT_TRUE(same(got, want))
            << c.demands.name << " seed " << seed << " pass " << pass
            << (got ? " got id " + std::to_string(got->id) : " got none")
            << (want ? " want id " + std::to_string(want->id) : " want none");
        if (!got) break;
        const bool fits = got->q <= capacity;
        const bool take = head_mode ? fits : prng.chance(0.5);
        if (take) {
          capacity -= got->q;
          queue.take();
          model.take();
        } else {
          queue.keep();
          if (head_mode) head_mode = false;
        }
        if (!head_mode && prng.chance(0.2))
          capacity -= prng.uniform_int(0, 3);
      }
      queue.end_pass();
      ASSERT_EQ(queue.size(), model.size());
      ASSERT_LT(pass, 10000) << "queue failed to drain";
    }
    EXPECT_TRUE(queue.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Demands, BackfillQueueDifferential,
    ::testing::Values(Case{{"dense", 16, false}, false},
                      Case{{"dense", 16, false}, true},
                      Case{{"sparse", 4096, true}, false},
                      Case{{"sparse", 4096, true}, true}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.demands.name) +
             (info.param.arena ? "Arena" : "Heap");
    });

TEST(BackfillQueue, RejectsProtocolViolations) {
  BackfillQueue queue(8, 2);
  EXPECT_THROW(queue.insert(0, 0, 9), std::exception);   // above max_q
  EXPECT_THROW(queue.insert(0, 0, 0), std::exception);   // no demand
  queue.insert(0, 0, 4);
  queue.insert(1, 1, 2);
  EXPECT_THROW(queue.insert(2, 2, 1), std::exception);   // past max_jobs
  queue.begin_pass();
  EXPECT_THROW(queue.insert(3, 3, 4), std::exception);   // pass open
  EXPECT_THROW(queue.begin_pass(), std::exception);
  ASSERT_TRUE(queue.next(8).has_value());
  EXPECT_THROW(queue.end_pass(), std::exception);        // unanswered
  queue.keep();
  queue.end_pass();
  EXPECT_THROW(BackfillQueue(0, 4), std::exception);
}

// What one decision-sized use costs -- construct, insert 64 jobs with
// powers-of-two demands up to 32, run a full pass -- measured in heap
// allocations and bytes (heap backing) and in arena footprint (arena
// backing). Deterministic, unlike wall time.
struct Footprint {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t pass_allocs = 0;
  std::size_t arena_bytes = 0;
  std::size_t arena_chunks = 0;
};

Footprint measure(ProcCount max_q) {
  constexpr std::size_t kJobs = 64;
  const Demands demands{"pow2", 32, true};
  Footprint out;
  {
    Prng prng(5);
    const std::uint64_t allocs0 = alloc_count();
    const std::uint64_t bytes0 = alloc_bytes();
    BackfillQueue queue(max_q, kJobs);
    for (std::size_t i = 0; i < kJobs; ++i)
      queue.insert(static_cast<JobId>(i), static_cast<std::int64_t>(i),
                   draw_demand(prng, demands));
    const std::uint64_t before_pass = alloc_count();
    std::int64_t capacity = max_q;
    queue.begin_pass();
    while (const auto e = queue.next(capacity)) {
      if (e->id % 2 == 0) {
        capacity -= e->q;
        queue.take();
      } else {
        queue.keep();
      }
    }
    queue.end_pass();
    out.pass_allocs = alloc_count() - before_pass;
    out.allocs = alloc_count() - allocs0;
    out.bytes = alloc_bytes() - bytes0;
  }
  {
    Prng prng(5);
    Arena arena;
    BackfillQueue queue(max_q, kJobs, &arena);
    for (std::size_t i = 0; i < kJobs; ++i)
      queue.insert(static_cast<JobId>(i), static_cast<std::int64_t>(i),
                   draw_demand(prng, demands));
    queue.begin_pass();
    while (queue.next(max_q)) queue.keep();
    queue.end_pass();
    out.arena_bytes = arena.capacity_bytes();
    out.arena_chunks = arena.chunk_count();
  }
  return out;
}

TEST(BackfillQueue, CostDoesNotScaleWithMachineWidth) {
  // Same jobs, machine widths from 64 (= the job count) to 2^20: a
  // bucket-per-demand-value layout would allocate 2^20 + 1 buckets here.
  const Footprint base = measure(64);
  EXPECT_GT(base.allocs, 0u);
  EXPECT_EQ(base.pass_allocs, 0u) << "bucket store and heap are pre-sized";
  for (const ProcCount max_q : {ProcCount{256}, ProcCount{4096},
                                ProcCount{1} << 20}) {
    const Footprint f = measure(max_q);
    EXPECT_EQ(f.allocs, base.allocs) << "max_q " << max_q;
    EXPECT_EQ(f.bytes, base.bytes) << "max_q " << max_q;
    EXPECT_EQ(f.pass_allocs, 0u) << "max_q " << max_q;
    EXPECT_EQ(f.arena_bytes, base.arena_bytes) << "max_q " << max_q;
    EXPECT_EQ(f.arena_chunks, base.arena_chunks) << "max_q " << max_q;
  }
}

}  // namespace
}  // namespace resched
