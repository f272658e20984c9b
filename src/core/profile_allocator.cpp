#include "core/profile_allocator.hpp"

#include <utility>

#include "core/availability.hpp"
#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {

FreeProfile::FreeProfile(StepProfile free_capacity)
    : profile_(std::move(free_capacity)) {
  RESCHED_REQUIRE_MSG(profile_.min_value() >= 0,
                      "free capacity profile must be non-negative");
}

FreeProfile FreeProfile::for_instance(const Instance& instance) {
  return FreeProfile(availability_profile(instance));
}

ProcCount FreeProfile::capacity_at(Time t) const {
  return profile_.value_at(t);
}

bool FreeProfile::fits_at(Time t, ProcCount q, Time p) const {
  RESCHED_REQUIRE(t >= 0 && q >= 1 && p > 0);
  // Equivalent to min_in(t, t+p) >= q, but bails out at the first deficient
  // segment.
  return profile_.first_below(t, checked_add(t, p), q) == kTimeInfinity;
}

Time FreeProfile::earliest_fit(Time t0, ProcCount q, Time p) const {
  RESCHED_REQUIRE(t0 >= 0 && q >= 1 && p > 0);
  RESCHED_REQUIRE_MSG(
      profile_.final_value() >= q,
      "job can never fit: q exceeds the eventual free capacity");
  Time t = t0;
  while (true) {
    // First moment in the window where capacity dips below q.
    const Time deficient = profile_.first_below(t, checked_add(t, p), q);
    if (deficient == kTimeInfinity) return t;
    // The window can only become feasible once capacity comes back up to q;
    // leap over the entire deficient run in one descent. The landing point
    // is a capacity-increase breakpoint (value < q just before it, >= q at
    // it), so the candidate-start lemma in the header still holds, and the
    // result is unchanged: the old breakpoint-by-breakpoint walk stopped at
    // exactly this position. final_value() >= q makes the leap finite, and
    // finitely many breakpoints make the loop terminate.
    const Time resume = profile_.first_at_least(deficient, q);
    RESCHED_CHECK_MSG(resume > t && resume != kTimeInfinity,
                      "earliest_fit failed to advance");
    t = resume;
  }
}

void FreeProfile::push_frame(Time t, ProcCount q, Time p, bool accepted) {
  // Push only after the add succeeds: a throwing add leaves the stack as
  // it was.
  profile_.add(t, checked_add(t, p), -q);
  open_.push_back(OpenCommit{++next_serial_, t, q, p, accepted});
}

void FreeProfile::commit(Time t, ProcCount q, Time p) {
  RESCHED_REQUIRE_MSG(fits_at(t, q, p),
                      "commit of a job that does not fit at its start time");
  if (retain_accepted_) {
    push_frame(t, q, p, /*accepted=*/true);
    return;
  }
  profile_.add(t, checked_add(t, p), -q);
  ++permanent_mutations_;
}

void FreeProfile::commit_fitted(Time t, ProcCount q, Time p) {
  RESCHED_ASSERT(fits_at(t, q, p));
  RESCHED_REQUIRE(t >= 0 && q >= 1 && p > 0);
  if (retain_accepted_) {
    push_frame(t, q, p, /*accepted=*/true);
    return;
  }
  profile_.add(t, checked_add(t, p), -q);
  ++permanent_mutations_;
}

FreeProfile::CommitToken FreeProfile::commit_tentative(Time t, ProcCount q,
                                                       Time p) {
  RESCHED_ASSERT(fits_at(t, q, p));
  RESCHED_REQUIRE(t >= 0 && q >= 1 && p > 0);
  push_frame(t, q, p, /*accepted=*/false);
  return CommitToken(next_serial_);
}

void FreeProfile::resolve_top(bool keep) {
  const OpenCommit& top = open_.back();
  // The exact inverse of push_frame's add (see step_profile.hpp).
  if (!keep) profile_.add(top.t, checked_add(top.t, top.p), top.q);
  open_.pop_back();
}

void FreeProfile::rollback(CommitToken&& token) {
  RESCHED_CHECK_MSG(token.live_, "rollback of a dead commit token");
  RESCHED_CHECK_MSG(!open_.empty() && open_.back().serial == token.serial_,
                    "commit tokens resolve newest-first: this token is not "
                    "the newest open tentative commit");
  token.live_ = false;
  resolve_top(/*keep=*/false);
}

void FreeProfile::accept(CommitToken&& token) {
  RESCHED_CHECK_MSG(token.live_, "accept of a dead commit token");
  RESCHED_CHECK_MSG(!open_.empty() && open_.back().serial == token.serial_,
                    "commit tokens resolve newest-first: this token is not "
                    "the newest open tentative commit");
  token.live_ = false;
  if (retain_accepted_) {
    // Plan-recording mode: seal the decision but keep the frame so
    // rewind_to can invalidate the whole plan suffix later.
    open_.back().accepted = true;
    return;
  }
  resolve_top(/*keep=*/true);
  ++permanent_mutations_;
}

void FreeProfile::rewind_to(const Checkpoint& checkpoint) {
  RESCHED_CHECK_MSG(
      permanent_mutations_ == checkpoint.permanent,
      "rewind_to across a permanent capacity mutation: the checkpoint "
      "predates an adjust_capacity / unretained commit / compact_history");
  RESCHED_CHECK_MSG(
      open_.size() >= checkpoint.depth && next_serial_ >= checkpoint.serial,
      "rewind_to target is ahead of this profile's state");
  while (open_.size() > checkpoint.depth) {
    RESCHED_CHECK_MSG(open_.back().serial > checkpoint.serial,
                      "frame stack does not match the rewind checkpoint");
    resolve_top(/*keep=*/false);
  }
}

std::vector<FreeProfile::PlanStep> FreeProfile::plan_since(
    const Checkpoint& checkpoint) const {
  RESCHED_CHECK_MSG(open_.size() >= checkpoint.depth,
                    "plan_since checkpoint is ahead of this profile's state");
  std::vector<PlanStep> steps;
  steps.reserve(open_.size() - checkpoint.depth);
  for (std::size_t i = checkpoint.depth; i < open_.size(); ++i) {
    RESCHED_CHECK_MSG(open_[i].serial > checkpoint.serial,
                      "frame stack does not match the plan_since checkpoint");
    steps.push_back(
        PlanStep{open_[i].t, open_[i].q, open_[i].p, open_[i].accepted});
  }
  return steps;
}

void FreeProfile::set_retain_accepted(bool on) {
  RESCHED_REQUIRE_MSG(open_.empty(),
                      "toggling plan recording with open frames");
  retain_accepted_ = on;
}

void FreeProfile::adjust_capacity(Time from, Time to, std::int64_t delta) {
  RESCHED_REQUIRE(from >= 0 && to > from);
  RESCHED_CHECK_MSG(open_.empty(),
                    "adjust_capacity with open plan frames: rewind first");
  if (delta == 0) return;
  if (delta < 0)
    RESCHED_REQUIRE_MSG(
        profile_.min_in(from, to) >= -delta,
        "capacity adjustment would drive free capacity negative");
  profile_.add(from, to, delta);
  ++permanent_mutations_;
}

std::size_t FreeProfile::compact_history(Time t) {
  RESCHED_CHECK_MSG(open_.empty(),
                    "compact_history with open plan frames: rewind first");
  const std::size_t removed = profile_.compact_before(t);
  if (removed > 0) ++permanent_mutations_;
  return removed;
}

Time FreeProfile::next_change_after(Time t) const {
  return profile_.next_change_after(t);
}

}  // namespace resched
