#include "sim/service_sim.hpp"

#include <gtest/gtest.h>

#include "algorithms/scheduler.hpp"

namespace resched {
namespace {

LoadGenConfig small_load() {
  LoadGenConfig load;
  load.m = 16;
  load.p_min = 1;
  load.p_max = 20;
  load.alpha = Rational(1, 2);
  return load;
}

ServiceConfig small_config() {
  ServiceConfig config;
  config.phases = ServicePhases{20, 100, 20};
  config.dispatch_window = 32;
  config.bail_queue_depth = 1000;
  config.queue_sample_interval = 100;
  config.record_wall_latency = false;  // deterministic results
  return config;
}

TEST(ServiceSim, StepIsDeterministicForFixedSeed) {
  const auto scheduler = make_scheduler("easy");
  const ServiceStepResult a =
      run_service_step(*scheduler, small_load(), 42, 50.0, small_config());
  const ServiceStepResult b =
      run_service_step(*scheduler, small_load(), 42, 50.0, small_config());
  EXPECT_EQ(a, b);  // every field incl. all histogram buckets
  const ServiceStepResult c =
      run_service_step(*scheduler, small_load(), 43, 50.0, small_config());
  EXPECT_NE(a, c);
}

TEST(ServiceSim, SteadyStateDecisionsAreNearlyAllocationFree) {
  // The memory-subsystem claim: a steady-state incremental decision runs
  // entirely on the decision arena, the frame stack and capacity-reusing
  // member buffers. decision_allocs counts every heap event inside the
  // timed measure-window decisions (operator-new hook + instrumented
  // malloc sites); the residue is rare amortized capacity growth, far
  // below one allocation per decision on average.
  for (const char* name : {"easy", "conservative", "fcfs"}) {
    ServiceConfig config = small_config();
    config.phases = ServicePhases{100, 400, 50};  // long warm steady state
    const ServiceStepResult step = run_service_step(
        *make_scheduler(name), small_load(), 42, 50.0, config);
    ASSERT_GT(step.decisions_measured, 100u) << name;
    EXPECT_LT(static_cast<double>(step.decision_allocs),
              0.5 * static_cast<double>(step.decisions_measured))
        << name << ": decision_allocs=" << step.decision_allocs
        << " over " << step.decisions_measured << " decisions";
  }
}

TEST(ServiceSim, SubSaturationStepServesEverything) {
  const auto scheduler = make_scheduler("conservative");
  const ServiceStepResult step =
      run_service_step(*scheduler, small_load(), 7, 10.0, small_config());
  EXPECT_EQ(step.arrivals, small_config().phases.total());
  EXPECT_EQ(step.completed, step.arrivals);
  EXPECT_EQ(step.measured, small_config().phases.measure);
  EXPECT_EQ(step.end_queue_depth, 0u);
  EXPECT_FALSE(step.saturated);
  // Every measured job contributes exactly one wait and one response sample.
  EXPECT_EQ(step.wait_ticks.count(), small_config().phases.measure);
  EXPECT_EQ(step.response_ticks.count(), small_config().phases.measure);
  // Response = wait + service, so response dominates wait pointwise.
  EXPECT_GE(step.response_ticks.percentile(0.5),
            step.wait_ticks.percentile(0.5));
  EXPECT_GT(step.decisions, 0u);
  // Wall clock off => no decision samples, by construction.
  EXPECT_EQ(step.decision_ns.count(), 0u);
  EXPECT_GT(step.sustained_rate, 0.0);
}

TEST(ServiceSim, OverloadSaturatesAndBails) {
  // Offered rate far past capacity (m = 16, mean work >> 16/tick): the
  // backlog must trip the bail depth, stop the arrival chain, and mark the
  // step saturated -- with every started job still drained (no machine
  // leaks, checked inside run_service_step).
  const auto scheduler = make_scheduler("easy");
  ServiceConfig config = small_config();
  config.phases = ServicePhases{10, 200, 10};
  config.bail_queue_depth = 50;
  const ServiceStepResult step =
      run_service_step(*scheduler, small_load(), 3, 5000.0, config);
  EXPECT_TRUE(step.saturated);
  EXPECT_LT(step.arrivals, config.phases.total());
  EXPECT_GT(step.end_queue_depth, config.bail_queue_depth / 2);
  EXPECT_LT(step.completed, step.arrivals);
}

TEST(ServiceSim, ChurnCancellationsAreNotBlamedAsSaturation) {
  // Cancellation churn at a sub-saturation rate: every measure-phase job is
  // served or canceled and the queue drains. Completions alone run below
  // the saturation fraction of the offered rate, but with the canceled
  // measure jobs added back the step keeps up, so it is not saturated.
  ServiceConfig config = small_config();
  config.phases = ServicePhases{20, 200, 20};
  config.churn.events_per_kilotick = 20.0;
  config.churn.availability_drop_weight = 0.0;
  config.churn.reservation_move_weight = 0.0;
  const auto scheduler = make_scheduler("conservative");
  const ServiceStepResult step =
      run_service_step(*scheduler, small_load(), 2, 30.0, config);
  ASSERT_LT(step.measured, config.phases.measure);  // some were canceled
  ASSERT_EQ(step.end_queue_depth, 0u);
  ASSERT_EQ(step.completed + step.canceled, step.arrivals);
  // sustained_rate stays completions only, and is below the fraction.
  ASSERT_LT(step.sustained_rate,
            config.saturation_fraction * step.offered_rate);
  EXPECT_FALSE(step.saturated);

  // Cancellations are added back, not waived: at seed 1 the accounted rate
  // still falls short of the fraction, and the step stays saturated.
  const ServiceStepResult slow =
      run_service_step(*scheduler, small_load(), 1, 30.0, config);
  ASSERT_GT(slow.canceled, 0u);
  EXPECT_TRUE(slow.saturated);
}

TEST(ServiceSim, SweepFindsAKnee) {
  const auto scheduler = make_scheduler("easy");
  ServiceConfig config = small_config();
  config.phases = ServicePhases{10, 80, 10};
  const ServiceSweepResult sweep = run_service_sweep(
      *scheduler, small_load(), 42, 100.0, 1000.0, config);
  ASSERT_EQ(sweep.steps.size(), 10u);
  for (std::size_t i = 0; i < sweep.steps.size(); ++i)
    EXPECT_DOUBLE_EQ(sweep.steps[i].offered_rate,
                     100.0 * static_cast<double>(i + 1));
  // m = 16 with mean work ~ up to a hundred proc-ticks/job cannot sustain
  // 1000 jobs/kilotick: a knee must exist, and by construction it is the
  // first saturated step.
  ASSERT_TRUE(sweep.has_knee());
  EXPECT_GT(sweep.knee_rate(), 0.0);
  for (int i = 0; i < sweep.knee_index; ++i)
    EXPECT_FALSE(sweep.steps[static_cast<std::size_t>(i)].saturated);
  EXPECT_TRUE(
      sweep.steps[static_cast<std::size_t>(sweep.knee_index)].saturated);
}

TEST(ServiceSim, SweepIsDeterministicForFixedSeed) {
  const auto scheduler = make_scheduler("fcfs");
  ServiceConfig config = small_config();
  config.phases = ServicePhases{10, 50, 10};
  const ServiceSweepResult a = run_service_sweep(
      *scheduler, small_load(), 9, 50.0, 250.0, config);
  const ServiceSweepResult b = run_service_sweep(
      *scheduler, small_load(), 9, 50.0, 250.0, config);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  EXPECT_EQ(a.knee_index, b.knee_index);
  for (std::size_t i = 0; i < a.steps.size(); ++i)
    EXPECT_EQ(a.steps[i], b.steps[i]);
}

TEST(ServiceSim, SchedulersFaceIdenticalArrivalsPerStep) {
  // The per-step seed derives from the root seed alone, so two schedulers
  // swept with identical parameters see the same offered stream: arrival
  // counts and rates line up step for step.
  ServiceConfig config = small_config();
  config.phases = ServicePhases{10, 50, 10};
  const ServiceSweepResult easy = run_service_sweep(
      *make_scheduler("easy"), small_load(), 11, 100.0, 300.0, config);
  const ServiceSweepResult fcfs = run_service_sweep(
      *make_scheduler("fcfs"), small_load(), 11, 100.0, 300.0, config);
  ASSERT_EQ(easy.steps.size(), fcfs.steps.size());
  for (std::size_t i = 0; i < easy.steps.size(); ++i) {
    EXPECT_DOUBLE_EQ(easy.steps[i].offered_rate,
                     fcfs.steps[i].offered_rate);
    EXPECT_EQ(easy.steps[i].arrivals, fcfs.steps[i].arrivals);
  }
}

TEST(ServiceSim, DispatchWindowBoundsDecisionSize) {
  // A window of 1 degrades to strict FCFS head-dispatch but must still
  // serve the whole stream at a modest rate.
  const auto scheduler = make_scheduler("conservative");
  ServiceConfig config = small_config();
  config.dispatch_window = 1;
  const ServiceStepResult step =
      run_service_step(*scheduler, small_load(), 5, 20.0, config);
  EXPECT_EQ(step.completed, config.phases.total());
}

TEST(ServiceSim, QueueDepthIsSampledDuringMeasureWindow) {
  const auto scheduler = make_scheduler("easy");
  ServiceConfig config = small_config();
  config.queue_sample_interval = 50;
  const ServiceStepResult step =
      run_service_step(*scheduler, small_load(), 13, 100.0, config);
  // At least the measure-start sample plus periodic ones.
  EXPECT_GE(step.queue_depth.count(), 2u);
  EXPECT_LE(static_cast<std::size_t>(step.queue_depth.max()),
            step.peak_queue_depth);
}

TEST(ServiceSim, RejectsReservationIncapableScheduler) {
  // Running jobs are modeled as reservations; shelf packers cannot consume
  // them and must be rejected up front with a typed error, not fail deep
  // inside a dispatch.
  const auto shelf = make_scheduler("shelf-ff");
  EXPECT_THROW(run_service_step(*shelf, small_load(), 1, 10.0,
                                small_config()),
               std::invalid_argument);
}

TEST(ServiceSim, RejectsBadParameters) {
  const auto scheduler = make_scheduler("easy");
  EXPECT_THROW(run_service_step(*scheduler, small_load(), 1, 0.0,
                                small_config()),
               std::invalid_argument);
  ServiceConfig config = small_config();
  config.dispatch_window = 0;
  EXPECT_THROW(run_service_step(*scheduler, small_load(), 1, 1.0, config),
               std::invalid_argument);
  EXPECT_THROW(run_service_sweep(*scheduler, small_load(), 1, 0.0, 10.0,
                                 small_config()),
               std::invalid_argument);
}

TEST(ServiceSim, BoundaryTickCapacityIsExact) {
  // Regression (phantom one-tick reservation): when an arrival fired at the
  // same tick as a pending completion, the old dispatcher presented the
  // finishing job as a one-tick reservation, sliding starts a tick late.
  // Pin the boundary exactly: m = 1 with fixed p = 10 under heavy backlog
  // must run jobs back to back -- the step ends exactly first_arrival +
  // 10 * total, with zero idle ticks between consecutive jobs.
  LoadGenConfig load;
  load.m = 1;
  load.p_min = 5;
  load.p_max = 5;
  load.log_uniform_p = false;
  load.alpha = Rational(1);
  ServiceConfig config = small_config();
  config.phases = ServicePhases{20, 60, 20};

  LoadGen reference(load, 31);
  reference.set_rate(400.0);
  const Time first_arrival = reference.next().time;

  const ServiceStepResult step =
      run_service_step(*make_scheduler("easy"), load, 31, 400.0, config);
  EXPECT_EQ(step.completed, config.phases.total());
  EXPECT_EQ(step.sim_end,
            first_arrival + 5 * static_cast<Time>(config.phases.total()));
  // The drain actually fired: an arrival whose inter-arrival gap exceeds
  // the service time is enqueued before the same-tick completion, so its
  // dispatch must defer to that completion instead of planning around a
  // phantom one-tick reservation.
  EXPECT_GT(step.deferred_dispatches, 0u);
}

TEST(ServiceSim, QueueDepthIsNeverSilentlyEmpty) {
  // Regression (sampler lifecycle): a backlog bail during *warmup* used to
  // abort the step before the first measure arrival ever scheduled the
  // sampling chain, leaving queue_depth empty for a perfectly valid phase
  // config. The chain is now anchored at simulation start and the bail
  // records a final sample as divergence evidence.
  const auto scheduler = make_scheduler("easy");
  ServiceConfig config = small_config();
  config.phases = ServicePhases{100, 100, 10};
  config.bail_queue_depth = 20;  // trips well inside warmup
  const ServiceStepResult step =
      run_service_step(*scheduler, small_load(), 3, 5000.0, config);
  EXPECT_TRUE(step.saturated);
  EXPECT_LT(step.arrivals, config.phases.warmup);  // bailed during warmup
  EXPECT_GE(step.queue_depth.count(), 1u);
  EXPECT_GT(step.queue_depth.max(),
            static_cast<std::int64_t>(config.bail_queue_depth / 2));
}

TEST(ServiceSim, SweepStepCountIsExact) {
  // Regression (float step enumeration): the old per-iteration
  // `step_size * (i + 1) > step_stop * (1 + 1e-9)` accumulated rounding
  // error; 0.1 steps to 0.3 must be exactly {0.1, 0.2, 0.3} and a stop
  // between steps truncates.
  EXPECT_EQ(service_sweep_step_count(0.1, 0.3), 3u);
  EXPECT_EQ(service_sweep_step_count(0.1, 0.7), 7u);
  EXPECT_EQ(service_sweep_step_count(100.0, 250.0), 2u);
  EXPECT_EQ(service_sweep_step_count(100.0, 100.0), 1u);
  EXPECT_EQ(service_sweep_step_count(0.2, 1.0), 5u);
  EXPECT_THROW((void)service_sweep_step_count(0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)service_sweep_step_count(2.0, 1.0),
               std::invalid_argument);

  const auto scheduler = make_scheduler("fcfs");
  ServiceConfig config = small_config();
  config.phases = ServicePhases{1, 2, 1};
  const ServiceSweepResult sweep = run_service_sweep(
      *scheduler, small_load(), 17, 0.1, 0.3, config);
  ASSERT_EQ(sweep.steps.size(), 3u);
  EXPECT_DOUBLE_EQ(sweep.steps.back().offered_rate, 0.1 * 3.0);
}

TEST(ServiceSim, DecisionCountersAreConsistent) {
  // Regression (decisions vs decision_ns): `decisions` counts every phase
  // while the wall recorder only samples the measure window; the split
  // decisions_measured counter makes the relationship exact.
  const auto scheduler = make_scheduler("easy");
  ServiceConfig config = small_config();
  config.record_wall_latency = true;
  const ServiceStepResult timed =
      run_service_step(*scheduler, small_load(), 42, 50.0, config);
  EXPECT_EQ(timed.decision_ns.count(), timed.decisions_measured);
  EXPECT_GT(timed.decisions_measured, 0u);
  EXPECT_GE(timed.decisions, timed.decisions_measured);

  config.record_wall_latency = false;
  const ServiceStepResult untimed =
      run_service_step(*scheduler, small_load(), 42, 50.0, config);
  EXPECT_EQ(untimed.decision_ns.count(), 0u);
  EXPECT_EQ(untimed.decisions_measured, timed.decisions_measured);
}

TEST(ServiceSim, IncrementalPathIsUsedAndAccounted) {
  const auto scheduler = make_scheduler("easy");
  ServiceConfig config = small_config();
  const ServiceStepResult inc =
      run_service_step(*scheduler, small_load(), 42, 80.0, config);
  EXPECT_EQ(inc.decisions_incremental, inc.decisions);
  EXPECT_EQ(inc.decisions_scratch, 0u);
  EXPECT_GE(inc.suffix_jobs_replanned, inc.decisions);
  EXPECT_EQ(inc.snapshots_reused + 1, inc.decisions_incremental);

  config.incremental = false;
  const ServiceStepResult scratch =
      run_service_step(*scheduler, small_load(), 42, 80.0, config);
  EXPECT_EQ(scratch.decisions_scratch, scratch.decisions);
  EXPECT_EQ(scratch.decisions_incremental, 0u);
  EXPECT_EQ(scratch.snapshots_reused, 0u);
  // Same service either way (schedules are bit-identical by construction).
  EXPECT_EQ(inc.completed, scratch.completed);
  EXPECT_EQ(inc.wait_ticks, scratch.wait_ticks);
  EXPECT_EQ(inc.response_ticks, scratch.response_ticks);
  EXPECT_EQ(inc.sim_end, scratch.sim_end);
}

TEST(ServiceSim, HistoryCompactionKeepsTheProfileBounded) {
  const auto scheduler = make_scheduler("conservative");
  ServiceConfig config = small_config();
  config.phases = ServicePhases{50, 300, 50};
  config.compact_interval = 64;
  const ServiceStepResult step =
      run_service_step(*scheduler, small_load(), 5, 60.0, config);
  EXPECT_EQ(step.completed, config.phases.total());
  EXPECT_GT(step.history_compactions, 0u);
  EXPECT_GT(step.compacted_segments, 0u);
}

TEST(ServiceSim, VerifyModeRequiresIncrementalCapability) {
  // lsrc accepts reservations but does not implement replan(); asking for
  // the oracle mode must be rejected up front.
  const auto lsrc = make_scheduler("lsrc");
  ServiceConfig config = small_config();
  config.verify_incremental = true;
  EXPECT_THROW(run_service_step(*lsrc, small_load(), 1, 10.0, config),
               std::invalid_argument);
  // Without verify it degrades gracefully to the scratch path.
  config.verify_incremental = false;
  const ServiceStepResult step =
      run_service_step(*lsrc, small_load(), 1, 10.0, config);
  EXPECT_EQ(step.decisions_incremental, 0u);
  EXPECT_EQ(step.decisions_scratch, step.decisions);
}

TEST(ServiceSim, EmptyPhasesAreANoOp) {
  const auto scheduler = make_scheduler("easy");
  ServiceConfig config = small_config();
  config.phases = ServicePhases{0, 0, 0};
  const ServiceStepResult step =
      run_service_step(*scheduler, small_load(), 1, 10.0, config);
  EXPECT_EQ(step.arrivals, 0u);
  EXPECT_EQ(step.completed, 0u);
  EXPECT_FALSE(step.saturated);
}

}  // namespace
}  // namespace resched
