// FreeProfile: the schedulers' mutable view of remaining capacity.
//
// Starts from the instance's availability m(t) = m - U(t) and is decremented
// as jobs are committed. All list/backfilling algorithms are expressed with
// three queries:
//
//   fits_at(t, q, p)      -- can a (q, p) job run in [t, t+p)?
//   earliest_fit(t0,q,p)  -- first start >= t0 where it can,
//   commit(t, q, p)       -- allocate it.
//
// Candidate-start lemma (used by earliest_fit and by LSRC's event loop):
// for fixed committed capacity, the set {t : fits_at(t, q, p)} is a finite
// union of left-closed intervals whose left endpoints are either t0 or
// *capacity-increase breakpoints* of the profile. Proof sketch: fits_at
// fails iff the window [t, t+p) meets a deficient segment (capacity < q);
// sliding t right past a deficient segment first becomes possible exactly at
// the segment's right edge, which is a breakpoint where capacity rises.
// Hence earliest_fit only ever returns t0 or an increase breakpoint, and a
// scheduler that re-examines its queue at capacity-increase events (job
// completions, reservation ends) never misses a feasible start.
//
// ## Tentative commits (transactional allocation)
//
// Branch-and-bound's depth-first search is speculative: place a job,
// recurse, revert the placement on backtrack. commit_tentative() makes that
// pattern first-class: it subtracts the job and pushes a frame (t, q, p) on
// a LIFO stack, returning an opaque CommitToken that names it. Reverting
// the frame is the exact inverse add of +q over [t, t+p); StepProfile's
// canonical form makes the reverted segments bit-identical, so a
// backtrack costs one add. A token must be resolved exactly once,
// newest-first:
//
//   rollback(token)  -- revert the allocation,
//   accept(token)    -- keep it, popping its frame in O(1).
//
// Tokens are strictly nested (LIFO), which is exactly the shape
// depth-first backtracking produces; resolving any other token -- an
// out-of-order one, or a dead one (already resolved, moved from or never
// issued) -- trips RESCHED_CHECK before the profile is touched. There is
// no public by-value inverse of a commit: one that does not reverse a live
// commit would silently inflate free capacity above the instance's
// availability -- the classic backfilling state-corruption bug. Only the
// top frame's own (t, q, p) is ever added back, once, as it is popped.
//
// Backfilling needs no speculation at all. EASY's "is the protected head
// pushed back?" test is a read-only windowed query on the uncommitted
// profile (see easy_bf.cpp), so a rejected candidate never mutates it.
//
// Complexity: fits_at is one binary search plus a scan of the segments in
// its window, stopping at the first deficient one. Each earliest_fit
// iteration leaps over a whole run of deficient segments (first_at_least),
// so a placement visits each segment between t0 and its answer a bounded
// number of times.
//
// ## Versioned plans (checkpoint / rewind -- the incremental-replan substrate)
//
// A resident service re-plans on every arrival/completion event. Rebuilding
// the capacity profile from scratch per decision is the dominant cost; the
// alternative is to keep ONE long-lived FreeProfile (absolute time) and let
// each plan run directly on it, then unwind the plan's speculative
// allocations before the next event. Three pieces make that safe:
//
//   checkpoint()            -- O(1) snapshot of the plan frontier: the frame
//                              stack depth, the commit serial and the
//                              underlying StepProfile::version().
//   set_retain_accepted(on) -- plan-recording mode: commit/commit_fitted
//                              push a frame instead of mutating unrecorded,
//                              and accept() keeps its frame instead of
//                              popping it. Every mutation a scheduler makes
//                              while planning is therefore on the frame
//                              stack.
//   rewind_to(checkpoint)   -- rolls the frame stack back to the checkpoint
//                              depth, newest-first, one inverse add per
//                              frame: the whole plan suffix is invalidated
//                              without an O(s) rebuild of the profile.
//                              Verifies through its count of permanent
//                              mutations that nothing but frames mutated
//                              since the checkpoint.
//
// plan_since(checkpoint) reads the delta between the checkpoint's version
// and now as the ordered list of (t, q, p) allocations -- the decisions a
// repair loop inspects to find the committed head of a plan.
//
// Permanent world changes (a job actually starting, churn: cancellations
// freeing capacity, availability drops, reservation moves) go through
// adjust_capacity(), which requires an empty frame stack: plans are always
// rewound before the world moves, so a checkpoint can never span a
// permanent mutation (rewind_to checks this and trips loudly).
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "core/step_profile.hpp"

namespace resched {

class FreeProfile {
 public:
  // Opaque handle to one open tentative commit. Move-only; a
  // default-constructed or resolved token is dead. Every live token must be
  // resolved (rollback or accept) before any older token -- destroying one
  // unresolved leaves its frame open and the next resolution will trip the
  // LIFO check.
  class CommitToken {
   public:
    CommitToken() = default;
    CommitToken(CommitToken&& other) noexcept
        : serial_(other.serial_), live_(other.live_) {
      other.live_ = false;
    }
    CommitToken& operator=(CommitToken&& other) noexcept {
      serial_ = other.serial_;
      live_ = other.live_;
      other.live_ = false;
      return *this;
    }
    CommitToken(const CommitToken&) = delete;
    CommitToken& operator=(const CommitToken&) = delete;
    ~CommitToken() = default;

    [[nodiscard]] bool live() const noexcept { return live_; }

   private:
    friend class FreeProfile;
    explicit CommitToken(std::uint64_t serial) noexcept
        : serial_(serial), live_(true) {}
    std::uint64_t serial_ = 0;
    bool live_ = false;
  };

  // View over an explicit capacity profile (must be non-negative).
  explicit FreeProfile(StepProfile free_capacity);

  // Capacity view of an instance before any job is placed.
  [[nodiscard]] static FreeProfile for_instance(const Instance& instance);

  [[nodiscard]] ProcCount capacity_at(Time t) const;

  // True iff min capacity over [t, t+p) is >= q. p > 0, q >= 1, t >= 0.
  [[nodiscard]] bool fits_at(Time t, ProcCount q, Time p) const;

  // Smallest t >= t0 with fits_at(t, q, p). Always terminates: requires
  // q <= final free capacity (capacity after every reservation and committed
  // job has ended), which holds for any valid job of the instance.
  [[nodiscard]] Time earliest_fit(Time t0, ProcCount q, Time p) const;

  // Permanently subtracts q over [t, t+p). Requires fits_at(t, q, p),
  // re-verified here (always on).
  void commit(Time t, ProcCount q, Time p);

  // commit() for callers whose t was just produced by earliest_fit (or an
  // explicit fits_at): the precondition holds by construction, so the
  // redundant windowed-min recheck is a Debug-only RESCHED_ASSERT. This is
  // the schedulers' hot placement path; misuse is still caught downstream
  // by Schedule::validate and the campaign oracle.
  void commit_fitted(Time t, ProcCount q, Time p);

  // Tentatively subtracts q over [t, t+p) and pushes its frame; the
  // returned token resolves it via rollback() or accept(). Same
  // by-construction precondition (and Debug-only recheck) as
  // commit_fitted. The frame is pushed only after the add succeeds: a
  // throwing commit (t + p overflows) leaves the profile and the stack
  // unchanged.
  [[nodiscard]] CommitToken commit_tentative(Time t, ProcCount q, Time p);

  // Reverts the newest open tentative commit, which must be the one the
  // token names (RESCHED_CHECK otherwise) by adding q back over [t, t+p);
  // leaves the profile bit-identical to its state before the commit.
  void rollback(CommitToken&& token);

  // Seals the newest open tentative commit (same LIFO check): the
  // allocation becomes permanent and its frame is popped in O(1).
  void accept(CommitToken&& token);

  // O(1) snapshot of the plan frontier; see the header notes. A checkpoint
  // taken on one FreeProfile must only be passed back to that object.
  struct Checkpoint {
    std::uint64_t serial = 0;    // next commit serial at checkpoint time
    std::size_t depth = 0;       // frame-stack depth at checkpoint time
    std::uint64_t version = 0;   // StepProfile::version() at checkpoint time
    std::uint64_t permanent = 0; // permanent mutations seen at checkpoint time
  };
  [[nodiscard]] Checkpoint checkpoint() const noexcept {
    return Checkpoint{next_serial_, open_.size(), profile_.version(),
                      permanent_mutations_};
  }

  // Rolls the frame stack back to the checkpoint's depth, newest-first
  // (accepted-retained frames included), leaving the profile bit-identical
  // to its checkpoint state. Trips RESCHED_CHECK
  // if any permanent mutation (adjust_capacity, non-retained commit,
  // compact_history) happened since the checkpoint -- those cannot be
  // rewound -- or if the stack is already below the checkpoint depth.
  void rewind_to(const Checkpoint& checkpoint);

  // One allocation recorded on the frame stack since a checkpoint.
  struct PlanStep {
    Time t = 0;
    ProcCount q = 0;
    Time p = 0;
    bool accepted = false;
    friend bool operator==(const PlanStep&, const PlanStep&) = default;
  };
  // The delta between the checkpoint's version and now: every still-open
  // frame recorded since, oldest first. O(frames since).
  [[nodiscard]] std::vector<PlanStep> plan_since(
      const Checkpoint& checkpoint) const;

  // Plan-recording mode: while on, commit()/commit_fitted() push frames and
  // accept() retains its frame, so rewind_to can unwind a whole plan.
  // Toggling requires an empty stack.
  void set_retain_accepted(bool on);
  [[nodiscard]] bool retain_accepted() const noexcept {
    return retain_accepted_;
  }

  // Permanent capacity mutation (a job starting for real; churn events:
  // cancellation refunds, availability drops, reservation moves). delta < 0
  // withdraws capacity over [from, to), delta > 0 restores it. Requires an
  // empty frame stack -- plans must be rewound before the world moves --
  // and, for withdrawals, that the window can afford it (min capacity over
  // the window stays >= 0).
  void adjust_capacity(Time from, Time to, std::int64_t delta);

  // Forwards StepProfile::compact_before: coalesces dead history strictly
  // before t (the service loop's monotone clock). Requires an empty frame
  // stack. Returns the number of segments removed.
  std::size_t compact_history(Time t);

  // Number of open (unresolved) tentative commits.
  [[nodiscard]] std::size_t open_commits() const noexcept {
    return open_.size();
  }

  // Smallest breakpoint > t, or kTimeInfinity (event-driven scheduling).
  [[nodiscard]] Time next_change_after(Time t) const;

  [[nodiscard]] const StepProfile& profile() const noexcept {
    return profile_;
  }

 private:
  // One open frame: identity for the LIFO checks and plan_since, and the
  // allocation its revert adds back. `accepted` marks a frame retained in
  // plan-recording mode: sealed as a decision, still rewindable.
  struct OpenCommit {
    std::uint64_t serial = 0;
    Time t = 0;
    ProcCount q = 0;
    Time p = 0;
    bool accepted = false;
  };

  // Pops the top frame, adding its allocation back unless `keep`.
  void resolve_top(bool keep);
  // Subtracts a validated allocation and pushes its frame; shared by
  // commit_tentative and the retain-mode permanent commits.
  void push_frame(Time t, ProcCount q, Time p, bool accepted);

  StepProfile profile_;
  std::vector<OpenCommit> open_;
  std::uint64_t next_serial_ = 0;
  // Count of non-rewindable mutations (adjust_capacity, non-retained
  // commits, compact_history); rewind_to refuses to cross one.
  std::uint64_t permanent_mutations_ = 0;
  bool retain_accepted_ = false;
};

}  // namespace resched
