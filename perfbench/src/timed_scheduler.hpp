// TimedScheduler: a transparent Scheduler wrapper that attributes time and
// work to the `algorithms` and `core` layers from outside the library.
//
// It forwards name(), capabilities(), schedule() and replan() to the
// wrapped scheduler unchanged -- the returned schedules, and therefore a
// service step's whole result or a matrix's verdict grid, are identical to
// the bare scheduler's (perfbench/tests/test_perfbench.cpp pins this). Around each
// call it records, into a process-wide CallSink:
//
//  * wall (or thread CPU) time per call (LatencyRecorder) and busy time,
//    calls and the number of jobs handed in (`algorithms.<s>.*`);
//  * with a tracer: the entry segment count of the profile the
//    call plans on, and around replan() the profile's version() delta
//    (mutations) and index_build_count() delta, plus the thread's
//    resched::alloc_count() delta around every call (`core.*`);
//  * on every k-th call (replay_every): a replay of the returned schedule
//    on a fresh profile -- FreeProfile::for_instance(instance) for
//    schedule(), a copy of the caller's profile for replan() -- timing
//    earliest_fit, commit_tentative + rollback and commit per job in
//    placement order (`core.earliest_fit_ns` ...). Replay time is booked
//    as probe time so callers can take it out of their wall clocks;
//  * with quality on: each returned schedule's Cmax /
//    makespan_lower_bound ratio and, for offline instances, its job waits
//    (the matrix's quality metrics);
//  * with a tracer, also one span per call, named `algorithms.<s>`, and one
//    named `perfbench.probe` around the wrapper's own replay work.
//
// <s> is the scheduler's registry name throughout.
//
// Options change only between passes, while no call is in flight.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "algorithms/scheduler.hpp"
#include "core/profile_allocator.hpp"
#include "sim/latency_recorder.hpp"
#include "trace.hpp"

namespace perfbench {

// Per-job timings of FreeProfile's public calls, replayed in placement
// order (see replay_placements).
struct ReplayStats {
  std::uint64_t placements = 0;
  std::int64_t earliest_fit_ns = 0;
  std::int64_t tentative_rollback_ns = 0;
  std::int64_t commit_ns = 0;
  std::uint64_t index_builds = 0;

  void add(const ReplayStats& other);
};

// Replays `schedule` job by job, in start order, onto `profile`: for each
// job times earliest_fit(max(release, floor), q, p), a commit_tentative +
// rollback at its start, and the commit at its start. The schedule must
// be feasible against `profile` (each prefix then fits).
[[nodiscard]] ReplayStats replay_placements(resched::FreeProfile& profile,
                                            std::span<const resched::Job> jobs,
                                            const resched::Schedule& schedule,
                                            resched::Time floor);

struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t queue_jobs = 0;  // jobs handed in, summed over calls
  std::int64_t busy_ns = 0;
  std::int64_t probe_ns = 0;     // replay / quality work done in the wrapper
  resched::LatencyRecorder call_ns;

  // Profile counters (with a tracer).
  std::uint64_t segments_observed = 0;
  std::uint64_t segments_sum = 0;
  std::uint64_t segments_max = 0;
  std::uint64_t replans = 0;  // replan() calls, the base of mutations
  std::uint64_t mutations = 0;
  std::uint64_t index_builds = 0;
  std::uint64_t allocs = 0;
  ReplayStats replay;

  // Quality (ProbeOptions::quality).
  resched::LatencyRecorder waits;
  double cmax_ratio_sum = 0.0;
  std::uint64_t cmax_ratio_count = 0;
};

// With a tracer, calls also record spans and the profile counters.
struct ProbeOptions {
  Tracer* tracer = nullptr;
  std::uint64_t replay_every = 0;  // 0 = never replay
  bool quality = false;
  // Time calls in the calling thread's CPU time instead of wall time (the
  // matrix: its worker threads share the host's CPUs with other work, so
  // their wall time also measures that contention).
  bool cpu_clock = false;
};

// Process-wide destination of every TimedScheduler's records.
class CallSink {
 public:
  CallSink() = default;
  CallSink(const CallSink&) = delete;
  CallSink& operator=(const CallSink&) = delete;

  void set_options(const ProbeOptions& options) { options_ = options; }
  [[nodiscard]] const ProbeOptions& options() const noexcept {
    return options_;
  }

  // Clears every scheduler's stats (entries stay, so cached pointers
  // remain valid).
  void reset();
  // Copy of the stats recorded for one scheduler name (zero if none).
  [[nodiscard]] CallStats stats(const std::string& scheduler) const;

 private:
  friend class TimedScheduler;
  CallStats& entry(const std::string& scheduler);

  ProbeOptions options_;
  mutable std::mutex mu_;  // guards stats_ and every CallStats in it
  std::map<std::string, CallStats> stats_;
};

[[nodiscard]] CallSink& call_sink();

class TimedScheduler final : public resched::Scheduler {
 public:
  // Wraps a fresh make_scheduler(registry_name); records go to `sink`
  // under the registry name (name() may differ: lsrc is "lsrc[submission]").
  TimedScheduler(const std::string& registry_name, CallSink& sink);

  [[nodiscard]] resched::ScheduleOutcome schedule(
      const resched::Instance& instance) const override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] resched::Capabilities capabilities() const override {
    return inner_->capabilities();
  }
  [[nodiscard]] resched::Schedule replan(
      const resched::ReplanRequest& request) const override;

 private:
  // Span name ids {call, probe} in `tracer`.
  std::pair<std::uint32_t, std::uint32_t> span_names(Tracer& tracer) const;

  std::unique_ptr<resched::Scheduler> inner_;
  CallSink& sink_;
  std::string label_;  // registry name
  CallStats& stats_;
  // Tracer the cached span name ids belong to; they are re-interned when
  // a different tracer is installed.
  mutable Tracer* span_tracer_ = nullptr;
  mutable std::pair<std::uint32_t, std::uint32_t> span_names_{0, 0};
};

// Registry name under which a wrapped copy of `scheduler` is registered.
[[nodiscard]] std::string timed_name(const std::string& scheduler);

// Registers timed_name(s) for every built-in scheduler s (idempotent) and
// returns the wrapped names, in the registry's order of the bare names.
std::vector<std::string> register_timed_schedulers();

}  // namespace perfbench
