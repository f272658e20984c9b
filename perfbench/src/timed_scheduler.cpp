#include "timed_scheduler.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "bounds/lower_bounds.hpp"
#include "core/arena.hpp"
#include "util/require.hpp"

namespace perfbench {

using resched::FreeProfile;
using resched::Instance;
using resched::Job;
using resched::Schedule;
using resched::ScheduleOutcome;
using resched::StepProfile;
using resched::Time;

void ReplayStats::add(const ReplayStats& other) {
  placements += other.placements;
  earliest_fit_ns += other.earliest_fit_ns;
  tentative_rollback_ns += other.tentative_rollback_ns;
  commit_ns += other.commit_ns;
  index_builds += other.index_builds;
}

ReplayStats replay_placements(FreeProfile& profile, std::span<const Job> jobs,
                              const Schedule& schedule, Time floor) {
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return schedule.start(jobs[a].id) <
                            schedule.start(jobs[b].id);
                   });
  ReplayStats out;
  const std::uint64_t builds_before = profile.profile().index_build_count();
  for (const std::size_t i : order) {
    const Job& job = jobs[i];
    const Time start = schedule.start(job.id);
    const std::int64_t t0 = now_ns();
    const Time fit = profile.earliest_fit(std::max(job.release, floor), job.q,
                                          job.p);
    const std::int64_t t1 = now_ns();
    FreeProfile::CommitToken token = profile.commit_tentative(start, job.q,
                                                              job.p);
    profile.rollback(std::move(token));
    const std::int64_t t2 = now_ns();
    profile.commit(start, job.q, job.p);
    const std::int64_t t3 = now_ns();
    // earliest_fit sees only the jobs placed before this one, so it can
    // only be earlier than the scheduler's start.
    RESCHED_CHECK_MSG(fit <= start, "replay: earliest_fit past the start");
    out.earliest_fit_ns += t1 - t0;
    out.tentative_rollback_ns += t2 - t1;
    out.commit_ns += t3 - t2;
    ++out.placements;
  }
  out.index_builds = profile.profile().index_build_count() - builds_before;
  return out;
}

void CallSink::reset() {
  const std::lock_guard lock(mu_);
  for (auto& [name, stats] : stats_) stats = CallStats{};
}

CallStats CallSink::stats(const std::string& scheduler) const {
  const std::lock_guard lock(mu_);
  const auto it = stats_.find(scheduler);
  return it == stats_.end() ? CallStats{} : it->second;
}

CallStats& CallSink::entry(const std::string& scheduler) {
  const std::lock_guard lock(mu_);
  return stats_[scheduler];
}

CallSink& call_sink() {
  static CallSink sink;
  return sink;
}

TimedScheduler::TimedScheduler(const std::string& registry_name,
                               CallSink& sink)
    : inner_(resched::make_scheduler(registry_name)),
      sink_(sink),
      label_(registry_name),
      stats_(sink.entry(registry_name)) {}

std::pair<std::uint32_t, std::uint32_t> TimedScheduler::span_names(
    Tracer& tracer) const {
  if (span_tracer_ != &tracer) {
    span_names_ = {tracer.intern("algorithms." + label_),
                   tracer.intern("perfbench.probe")};
    span_tracer_ = &tracer;
  }
  return span_names_;
}

namespace {

// Whether the call about to start is one of the sampled replays: calls
// 1, 1 + every, 1 + 2 * every, ... of this scheduler.
bool sampled(std::mutex& mu, const CallStats& stats, std::uint64_t every) {
  if (every == 0) return false;
  const std::lock_guard lock(mu);
  return stats.calls % every == 0;
}

// The clock scheduler calls are timed with (ProbeOptions::cpu_clock).
std::int64_t call_clock(const ProbeOptions& options) {
  return options.cpu_clock ? thread_cpu_ns() : now_ns();
}

}  // namespace

ScheduleOutcome TimedScheduler::schedule(const Instance& instance) const {
  const ProbeOptions& options = sink_.options();
  const std::pair<std::uint32_t, std::uint32_t> names =
      options.tracer != nullptr ? span_names(*options.tracer)
                                : std::pair<std::uint32_t, std::uint32_t>{};
  const bool replay = sampled(sink_.mu_, stats_, options.replay_every);
  const std::uint64_t allocs_before = resched::alloc_count();
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::optional<ScheduleOutcome> outcome;
  {
    const ScopedSpan span(options.tracer, names.first, false);
    start = call_clock(options);
    outcome.emplace(inner_->schedule(instance));
    end = call_clock(options);
  }
  const std::uint64_t allocs = resched::alloc_count() - allocs_before;

  const std::int64_t probe_start = now_ns();
  CallStats local;
  if (outcome->ok() && (replay || options.quality)) {
    const ScopedSpan span(options.tracer, names.second, false);
    const Schedule& schedule = outcome->value();
    if (replay) {
      FreeProfile profile = FreeProfile::for_instance(instance);
      local.segments_observed = 1;
      local.segments_sum = local.segments_max =
          profile.profile().segment_count();
      local.replay = replay_placements(profile, instance.jobs(), schedule, 0);
    }
    if (options.quality) {
      // Waits only of offline instances: the release-time rows of the
      // matrix include the fixed SWF trace, identical for every seed.
      if (!instance.has_release_times())
        for (const Job& job : instance.jobs())
          local.waits.record(schedule.start(job.id) - job.release);
      local.cmax_ratio_sum =
          static_cast<double>(schedule.makespan(instance)) /
          static_cast<double>(
              std::max<Time>(1, resched::makespan_lower_bound(instance)));
      local.cmax_ratio_count = 1;
    }
  }
  const std::int64_t probe = now_ns() - probe_start;

  const std::lock_guard lock(sink_.mu_);
  ++stats_.calls;
  stats_.queue_jobs += instance.n();
  stats_.busy_ns += end - start;
  stats_.probe_ns += probe;
  stats_.call_ns.record(end - start);
  if (options.tracer != nullptr) {
    stats_.allocs += allocs;
    stats_.segments_observed += local.segments_observed;
    stats_.segments_sum += local.segments_sum;
    stats_.segments_max = std::max(stats_.segments_max, local.segments_max);
    stats_.index_builds += local.replay.index_builds;
    stats_.replay.add(local.replay);
  }
  if (options.quality) {
    stats_.waits.merge(local.waits);
    stats_.cmax_ratio_sum += local.cmax_ratio_sum;
    stats_.cmax_ratio_count += local.cmax_ratio_count;
  }
  return std::move(*outcome);
}

Schedule TimedScheduler::replan(const resched::ReplanRequest& request) const {
  const ProbeOptions& options = sink_.options();
  const std::pair<std::uint32_t, std::uint32_t> names =
      options.tracer != nullptr ? span_names(*options.tracer)
                                : std::pair<std::uint32_t, std::uint32_t>{};
  const bool replay = sampled(sink_.mu_, stats_, options.replay_every);
  const StepProfile& profile = request.free.profile();
  const std::size_t segments = profile.segment_count();
  const std::uint64_t version_before = profile.version();
  const std::uint64_t builds_before = profile.index_build_count();

  // The replay starts from the profile as the call finds it.
  const std::int64_t copy_start = now_ns();
  std::optional<FreeProfile> copy;
  if (replay) copy.emplace(StepProfile(profile));
  std::int64_t probe = now_ns() - copy_start;

  const std::uint64_t allocs_before = resched::alloc_count();
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::optional<Schedule> schedule;
  {
    const ScopedSpan span(options.tracer, names.first, false);
    start = call_clock(options);
    schedule.emplace(inner_->replan(request));
    end = call_clock(options);
  }
  const std::uint64_t allocs = resched::alloc_count() - allocs_before;
  const std::uint64_t mutations = profile.version() - version_before;
  const std::uint64_t builds = profile.index_build_count() - builds_before;

  const std::int64_t probe_start = now_ns();
  ReplayStats replayed;
  if (copy.has_value()) {
    const ScopedSpan span(options.tracer, names.second, false);
    replayed = replay_placements(*copy, request.queue, *schedule, request.now);
  }
  probe += now_ns() - probe_start;

  const std::lock_guard lock(sink_.mu_);
  ++stats_.calls;
  stats_.queue_jobs += request.queue.size();
  stats_.busy_ns += end - start;
  stats_.probe_ns += probe;
  stats_.call_ns.record(end - start);
  if (options.tracer != nullptr) {
    stats_.allocs += allocs;
    ++stats_.segments_observed;
    stats_.segments_sum += segments;
    stats_.segments_max = std::max<std::uint64_t>(stats_.segments_max,
                                                  segments);
    ++stats_.replans;
    stats_.mutations += mutations;
    stats_.index_builds += builds + replayed.index_builds;
    stats_.replay.add(replayed);
  }
  return std::move(*schedule);
}

std::string timed_name(const std::string& scheduler) {
  return "timed:" + scheduler;
}

std::vector<std::string> register_timed_schedulers() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> wrapped;
    for (const std::string& name : resched::registered_schedulers()) {
      wrapped.push_back(timed_name(name));
      resched::register_scheduler(wrapped.back(), [name] {
        return std::make_unique<TimedScheduler>(name, call_sink());
      });
    }
    return wrapped;
  }();
  return names;
}

}  // namespace perfbench
