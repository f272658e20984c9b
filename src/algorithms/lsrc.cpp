#include "algorithms/lsrc.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "algorithms/backfill_queue.hpp"
#include "core/profile_allocator.hpp"
#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {

LsrcScheduler::LsrcScheduler(ListOrder order, std::uint64_t seed)
    : order_(order), seed_(seed), use_explicit_(false) {}

LsrcScheduler::LsrcScheduler(std::vector<JobId> explicit_list)
    : order_(ListOrder::kSubmission),
      seed_(0),
      explicit_list_(std::move(explicit_list)),
      use_explicit_(true) {}

std::string LsrcScheduler::name() const {
  if (use_explicit_) return "lsrc[explicit]";
  return "lsrc[" + to_string(order_) + "]";
}

ScheduleOutcome LsrcScheduler::schedule(const Instance& instance) const {
  const std::vector<JobId> list =
      use_explicit_ ? explicit_list_ : make_list(instance, order_, seed_);
  return run(instance, list);
}

Schedule LsrcScheduler::run(const Instance& instance,
                            std::span<const JobId> list) {
  RESCHED_REQUIRE_MSG(list.size() == instance.n(),
                      "priority list must mention every job exactly once");
  {
    std::vector<bool> seen(instance.n(), false);
    for (const JobId id : list) {
      RESCHED_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < instance.n());
      RESCHED_REQUIRE_MSG(!seen[static_cast<std::size_t>(id)],
                          "duplicate job in priority list");
      seen[static_cast<std::size_t>(id)] = true;
    }
  }

  Schedule schedule(instance.n());
  if (instance.n() == 0) return schedule;

  FreeProfile free = FreeProfile::for_instance(instance);

  // Wake-up times: capacity increases (completions, reservation ends) and
  // job releases; EventTimes coalesces collisions.
  EventTimes events;
  for (const Reservation& resa : instance.reservations())
    events.push(resa.end());
  Time t = kTimeInfinity;
  for (const Job& job : instance.jobs()) {
    if (job.release > 0) events.push(job.release);
    t = std::min(t, job.release);
  }

  // Pending jobs, event-indexed by processor demand; rank = priority-list
  // position, so a pass examines them in exactly the list order the seed's
  // linear rescan used. Unreleased jobs stay out of the queue entirely (the
  // rescan re-skipped them at every event) and enter when t reaches their
  // release, via the release-sorted feed below.
  std::vector<std::int64_t> rank_of(instance.n());
  for (std::size_t r = 0; r < list.size(); ++r)
    rank_of[static_cast<std::size_t>(list[r])] = static_cast<std::int64_t>(r);
  std::vector<JobId> by_release(instance.n());
  std::iota(by_release.begin(), by_release.end(), JobId{0});
  std::sort(by_release.begin(), by_release.end(), [&](JobId a, JobId b) {
    const Time ra = instance.job(a).release;
    const Time rb = instance.job(b).release;
    return ra != rb ? ra < rb : a < b;
  });

  BackfillQueue pending(instance.m(), instance.n());
  std::size_t next_release = 0;
  std::size_t remaining = instance.n();
  while (remaining > 0) {
    while (next_release < by_release.size() &&
           instance.job(by_release[next_release]).release <= t) {
      const Job& job = instance.job(by_release[next_release++]);
      pending.insert(job.id, rank_of[static_cast<std::size_t>(job.id)],
                     job.q);
    }

    // Single pass in priority order: start everything that fits now. Only
    // buckets with q <= capacity wake up; the rest provably cannot start.
    std::int64_t capacity = free.capacity_at(t);
    pending.begin_pass();
    while (const auto candidate = pending.next(capacity)) {
      const Job& job = instance.job(candidate->id);
      if (free.fits_at(t, job.q, job.p)) {
        free.commit_fitted(t, job.q, job.p);
        schedule.set_start(job.id, t);
        events.push(checked_add(t, job.p));
        // resched-lint: time-arith-audited(admitted q keeps capacity in [0, m])
        capacity -= job.q;
        --remaining;
        pending.take();
      } else {
        pending.keep();
      }
    }
    pending.end_pass();
    if (remaining == 0) break;

    // Advance to the next wake-up strictly after t.
    const Time next = events.next_after(t);
    RESCHED_CHECK_MSG(next < kTimeInfinity,
                      "LSRC stalled: pending jobs but no future event -- "
                      "instance must be infeasible");
    t = next;
  }
  return schedule;
}

}  // namespace resched
