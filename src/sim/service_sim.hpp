// Resident cluster service: schedulers under sustained open-loop traffic.
//
// Every other driver in the repo is batch-mode (build instance -> schedule
// -> exit). This harness runs the cluster as a long-lived service on the
// sim/des kernel: an open-loop LoadGen feeds arrivals, and the scheduler
// under test is re-invoked on each arrival/completion/churn event over a
// rolling window of the waiting queue. Jobs the scheduler places at "now"
// start immediately; everything else keeps waiting for the next event. That
// is exactly how EASY/conservative run in production batch systems --
// re-plan on event, commit only the head of the plan.
//
// ## Incremental re-planning (ROADMAP item 2)
//
// Two planning paths produce bit-identical schedules:
//
//  * scratch  -- per decision, build an Instance: waiting window as jobs,
//    running jobs and availability windows as reservations relative to now,
//    and call Scheduler::schedule(). O(running + windows) profile rebuild
//    per decision.
//  * incremental -- keep ONE FreeProfile in absolute time for the whole
//    step. Churn windows are permanent capacity adjustments; planned jobs
//    live in retained plan frames above an O(1) checkpoint. Schedulers
//    that advertise append_only_replan (pure arrival-order folds: fcfs,
//    conservative) keep the plan across decisions -- a started job's
//    occupancy simply stays in its frame, and a decision re-solves only
//    the jobs that arrived since the plan was built (suffix repair).
//    Event-loop schedulers (easy) re-solve the window per decision on the
//    warm profile. Either way, plan upkeep -- rewinding frames, making
//    started-job occupancy permanent, compacting dead history -- runs
//    AFTER the decision's latency sample (settle(): respond first, then
//    reclaim), and preferentially at idle instants.
//
// Equivalence is structural -- replan() shares its core loop with
// schedule(), differing only by a time translation -- and enforced: with
// ServiceConfig::verify_incremental both paths run per decision and any
// start-time divergence trips RESCHED_CHECK (the churn differential fuzz in
// tests/test_churn_fuzz.cpp drives this across the whole registry).
//
// ## Churn
//
// An optional deterministic churn stream (generators/churn.hpp) perturbs
// the step mid-flight: waiting/running jobs are canceled, availability
// drops withdraw processors for a window, and pending windows are moved.
// Every applied event invalidates the current plan and triggers a repair
// dispatch. Cancelled measure-phase jobs are accounted separately so the
// measurement window still closes.
//
// A step runs three phases in the mutated-client style (SNIPPETS.md):
// warmup jobs prime the pipeline, measure jobs contribute samples, cooldown
// jobs hold the pressure while measurement drains. Recorded per step, all
// through the log-bucketed LatencyRecorder:
//   * scheduler-decision latency (wall-clock ns per re-plan invocation in
//     the measure window),
//   * job wait and response times (simulated ticks -- deterministic),
//   * queue depth over time (sampled every queue_sample_interval ticks; the
//     sampler chain is anchored at simulation start and guaranteed to leave
//     at least one sample whenever the step has a measure phase, even if
//     the backlog bail aborts the step during warmup).
//
// A sweep raises the offered rate from step_size to step_stop in step_size
// increments (exact integer step indices -- no accumulated floating-point
// drift) and reports the saturation knee: the first step whose queue growth
// diverges -- the backlog trips bail_queue_depth, or the measure-phase
// completion rate, with churn-canceled measure jobs counted as accounted,
// falls below saturation_fraction of the offered rate.
//
// Determinism: with record_wall_latency off, a step's entire result is a
// pure function of (scheduler, load config, seed, rate, churn config) --
// pinned by tests/test_service_sim.cpp. Wall-clock decision latency is
// inherently run-to-run noisy; everything else never is.
#pragma once

#include <cstdint>
#include <vector>

#include "algorithms/scheduler.hpp"
#include "core/types.hpp"
#include "generators/churn.hpp"
#include "sim/latency_recorder.hpp"
#include "sim/load_gen.hpp"

namespace resched {

// Sample phases, counted in jobs (the open-loop analogue of mutated's
// pre_samples / samples / post_samples).
struct ServicePhases {
  std::uint64_t warmup = 200;
  std::uint64_t measure = 1000;
  std::uint64_t cooldown = 200;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return warmup + measure + cooldown;
  }
};

// A planned availability withdrawal: `width` processors are gone over
// [start, end). This is the service-side form of a scenario program's
// unavailability rectangles (scenario/matrix.hpp compiles programs into
// these); unlike churn drops they are known at step start, so the scheduler
// plans around them from the first decision.
struct AvailabilityWindow {
  Time start = 0;
  Time end = 0;
  ProcCount width = 0;

  friend bool operator==(const AvailabilityWindow&,
                         const AvailabilityWindow&) = default;
};

struct ServiceConfig {
  ServicePhases phases;
  // Rolling dispatch window: at most this many head-of-queue jobs are handed
  // to the scheduler per decision. Bounds per-event cost at saturation
  // (a real backfill lookahead), so a diverging queue cannot make one
  // decision O(backlog).
  std::size_t dispatch_window = 128;
  // Backlog bail-out: beyond this waiting-queue depth the step aborts and is
  // marked saturated (queue growth has clearly diverged).
  std::size_t bail_queue_depth = 5000;
  // Queue-depth sampling period (simulated ticks); the chain runs from
  // simulation start until measurement finishes, recording only samples
  // that fall inside the open measure window.
  Time queue_sample_interval = 500;
  // Saturation test: the accounted measure-phase rate (completions plus
  // churn cancellations) below this fraction of the offered rate marks the
  // step saturated.
  double saturation_fraction = 0.95;
  // Wall-clock timing of each scheduler decision (steady_clock). Off =>
  // decision_ns stays empty and the whole result is deterministic.
  bool record_wall_latency = true;
  // Plan via Scheduler::replan on the persistent profile when the scheduler
  // advertises capabilities().incremental_replan; schedulers without the
  // capability fall back to the scratch path per decision.
  bool incremental = true;
  // Oracle mode: run BOTH paths per decision and RESCHED_CHECK that the
  // incremental plan equals the scratch plan shifted by now. Requires an
  // incremental-capable scheduler. Used by the differential churn fuzz.
  bool verify_incremental = false;
  // Dead plan history is coalesced (FreeProfile::compact_history) once
  // this many simulated ticks pass -- or sooner, after a fixed completion
  // budget, since each completion strands ~2 dead segments -- keeping the
  // persistent profile O(active horizon) instead of O(jobs ever started).
  // For append-capable schedulers this is also the retained plan's rebase
  // cadence: dropping the plan forces one full window re-solve, so the
  // interval bounds both the frame stack and the history drag. Compaction
  // runs outside the timed decision window (at idle when possible).
  Time compact_interval = 256;
  // Optional churn stream; ChurnConfig{} (rate 0) disables it.
  ChurnConfig churn;
  // Planned availability windows applied at step start (width >= 1,
  // end > start >= 0; overlapping windows must fit within m together --
  // checked at step start). Both planning paths see them: the persistent
  // profile loses the capacity permanently, and the scratch path rebuilds
  // them as reservations relative to now.
  std::vector<AvailabilityWindow> availability;
};

struct ServiceStepResult {
  double offered_rate = 0.0;  // jobs per kilotick
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;
  std::uint64_t canceled = 0;   // jobs removed by churn (waiting or running)
  std::uint64_t measured = 0;   // measure-phase jobs fully served
  std::uint64_t decisions = 0;  // scheduler invocations, all phases
  // Scheduler invocations whose wall latency falls inside the open measure
  // window -- decision_ns.count() equals this when record_wall_latency is
  // on. `decisions` above always counts every phase.
  std::uint64_t decisions_measured = 0;
  // Heap allocations performed inside measure-window decisions (sum over
  // the same windows decision_ns times): the delta of resched::alloc_count()
  // across the timed region. Deterministic -- heap traffic is a pure
  // function of the simulated state -- so it participates in the full
  // result equality pin. Steady-state incremental decisions target zero.
  std::uint64_t decision_allocs = 0;
  std::size_t peak_queue_depth = 0;
  std::size_t end_queue_depth = 0;
  Time sim_end = 0;

  // Incremental-path accounting (zero when the scratch path planned).
  std::uint64_t decisions_incremental = 0;  // decisions via replan()
  std::uint64_t decisions_scratch = 0;      // decisions via schedule()
  std::uint64_t snapshots_reused = 0;   // decisions reusing the live profile
  std::uint64_t suffix_jobs_replanned = 0;  // sum of re-solved window sizes
  std::uint64_t plan_frames_rewound = 0;    // frames unwound by rewind_to
  std::uint64_t history_compactions = 0;    // compact_history calls
  std::uint64_t compacted_segments = 0;     // segments they removed
  // Dispatches deferred because a same-tick completion had not drained yet
  // (the completion event at this tick re-dispatches with true capacity).
  std::uint64_t deferred_dispatches = 0;

  // Planned availability windows applied at step start (the scenario
  // program's rectangles; see ServiceConfig::availability).
  std::uint64_t scenario_windows = 0;

  // Churn accounting.
  std::uint64_t churn_events = 0;          // events applied
  std::uint64_t churn_skipped = 0;         // events with no feasible target
  std::uint64_t churn_cancel_waiting = 0;
  std::uint64_t churn_cancel_running = 0;
  std::uint64_t churn_drops = 0;
  std::uint64_t churn_moves = 0;

  LatencyRecorder wait_ticks;      // start - arrival, measure phase only
  LatencyRecorder response_ticks;  // completion - arrival, measure phase
  LatencyRecorder queue_depth;     // waiting-queue depth over measure window
  LatencyRecorder decision_ns;     // wall ns per decision in measure window

  double sustained_rate = 0.0;  // measured completions per kilotick
  bool saturated = false;

  friend bool operator==(const ServiceStepResult&,
                         const ServiceStepResult&) = default;
};

// Runs one fixed-rate step. The scheduler must accept reservations (running
// jobs are modeled as such); throws std::invalid_argument otherwise.
// `rate` is in jobs per kilotick.
[[nodiscard]] ServiceStepResult run_service_step(const Scheduler& scheduler,
                                                 const LoadGenConfig& load,
                                                 std::uint64_t seed,
                                                 double rate,
                                                 const ServiceConfig& config);

struct ServiceSweepResult {
  std::vector<ServiceStepResult> steps;  // rate = step_size * (i + 1)
  int knee_index = -1;                   // first saturated step, -1 if none

  [[nodiscard]] bool has_knee() const noexcept { return knee_index >= 0; }
  // Offered rate at the knee; requires has_knee().
  [[nodiscard]] double knee_rate() const;
};

// Number of steps a sweep with these parameters runs: the largest n with
// n * step_size <= step_stop, computed once from an exact integer step
// count (no per-iteration float accumulation; a half-ulp shortfall in
// step_stop/step_size still yields the intended final step).
[[nodiscard]] std::size_t service_sweep_step_count(double step_size,
                                                   double step_stop);

// Stepped saturation sweep: rates step_size, 2*step_size, ... up to
// step_stop (inclusive). Each step reuses the same derived seed, so every
// scheduler in a comparison faces an identical arrival sequence per rate.
[[nodiscard]] ServiceSweepResult run_service_sweep(const Scheduler& scheduler,
                                                   const LoadGenConfig& load,
                                                   std::uint64_t seed,
                                                   double step_size,
                                                   double step_stop,
                                                   const ServiceConfig& config);

}  // namespace resched
