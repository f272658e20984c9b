#include "sim/campaign.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "bounds/checker.hpp"
#include "core/schedule.hpp"
#include "exact/bnb.hpp"
#include "sim/metrics.hpp"
#include "util/prng.hpp"
#include "util/require.hpp"

namespace resched {

namespace {

// One (instance, scheduler) outcome, written by exactly one worker.
struct TaskResult {
  bool scheduled = false;
  bool skipped = false;  // DomainError from the scheduler entry point
  DomainReason reason = DomainReason::kOther;
  ScheduleMetrics metrics;
  double seconds = 0.0;
  // check_guarantees mode: the compliance verdict for this schedule.
  bool guarantee_checked = false;
  bool has_guarantee = false;
  Compliance compliance = Compliance::kInconclusive;
};

std::size_t resolve_threads(std::size_t requested, std::size_t task_count) {
  const std::size_t hardware = std::thread::hardware_concurrency();
  std::size_t threads = requested ? requested : (hardware ? hardware : 1);
  return std::min(threads, std::max<std::size_t>(task_count, 1));
}

// Runs body(0..count) across `threads` workers pulling from a shared
// counter; rethrows the first exception after every worker has drained.
// Task pickup order is irrelevant to the result by construction (each task
// writes its own slot), so this is determinism-neutral.
template <typename Body>
void parallel_for(std::size_t threads, std::size_t count, const Body& body) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto worker = [&]() noexcept {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t task = next.fetch_add(1, std::memory_order_relaxed);
      if (task >= count) return;
      try {
        body(task);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& thread : pool) thread.join();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace

CampaignResult run_campaign(const InstanceGenerator& generator,
                            const CampaignConfig& config) {
  RESCHED_REQUIRE_MSG(generator != nullptr,
                      "campaign needs an instance generator");
  const std::vector<std::string> names =
      config.schedulers.empty() ? registered_schedulers() : config.schedulers;
  RESCHED_REQUIRE_MSG(!names.empty(), "campaign needs at least one scheduler");
  // Surface unknown scheduler names before spawning any thread.
  for (const std::string& name : names) (void)make_scheduler(name);

  // One deterministic seed per instance index, derived sequentially from the
  // master seed before any worker starts; which thread runs which index can
  // then never influence the data.
  std::vector<std::uint64_t> seeds(config.instances);
  {
    Prng master(config.seed);
    for (std::uint64_t& seed : seeds) seed = master.fork_seed();
  }

  // One generator run per index, not one per task. No pregeneration
  // barrier: the first task to touch index i generates it under that
  // instance's once_flag while workers on other indices keep scheduling,
  // so generation overlaps the task phase instead of serializing ahead of
  // it. Later tasks on i read the one built instance const-shared:
  // StepProfile's const queries keep no cached state. call_once's "turns"
  // semantics also keep a throwing generator exact: the flag stays unset
  // and the exception aborts the campaign.
  // Determinism is untouched -- the instance is a pure function of
  // (i, seeds[i]) no matter which worker builds it.
  std::vector<Instance> shared(config.instances);
  // deque: once_flag is immovable, and the container never resizes after
  // this point.
  std::deque<std::once_flag> shared_once(config.instances);
  const auto shared_instance = [&](std::size_t i) -> const Instance& {
    std::call_once(shared_once[i],
                   [&] { shared[i] = generator(i, seeds[i]); });
    return shared[i];
  };

  std::vector<std::vector<TaskResult>> results(
      config.instances, std::vector<TaskResult>(names.size()));
  // Work unit = one (instance, scheduler) pair, not one instance: a
  // registry mixing a ~100x-slower scheduler (local-search) with cheap
  // ones would otherwise serialize the tail behind whichever worker drew
  // the slow scheduler's whole instance. The (i, s) result slot is written
  // by exactly one worker.
  const std::size_t task_count = config.instances * names.size();
  parallel_for(
      resolve_threads(config.threads, task_count), task_count,
      [&](std::size_t task) {
        const std::size_t i = task / names.size();
        const std::size_t s = task % names.size();
        const Instance& instance = shared_instance(i);
        TaskResult& slot = results[i][s];
        const auto scheduler = make_scheduler(names[s]);
        // resched-lint: determinism-audited(wall-latency telemetry only; never feeds schedules)
        const auto start = std::chrono::steady_clock::now();
        // No exception handling here on purpose: only the typed DomainError
        // arm means "outside the domain". A precondition tripped anywhere
        // inside the scheduler stack propagates through parallel_for and
        // aborts the campaign.
        ScheduleOutcome outcome = scheduler->schedule(instance);
        if (!outcome.ok()) {
          slot.skipped = true;
          slot.reason = outcome.error().reason;
          return;
        }
        slot.seconds = std::chrono::duration<double>(
        // resched-lint: determinism-audited(wall-latency telemetry only; never feeds schedules)
                           std::chrono::steady_clock::now() - start)
                           .count();
        const Schedule schedule = std::move(outcome).value();
        if (config.validate) {
          const ValidationResult check = schedule.validate(instance);
          RESCHED_CHECK_MSG(check.ok, "campaign: scheduler '" + names[s] +
                                          "' produced an infeasible "
                                          "schedule: " +
                                          check.error);
        }
        slot.metrics = compute_metrics(instance, schedule, config.tau);
        slot.scheduled = true;
        if (config.check_guarantees) {
          // An exact reference turns a bound breach into a definite
          // kViolated; it is worth a B&B only on tiny instances. Release
          // times are outside the B&B's model, so those fall back to the
          // certified lower bound (still sound: ratio <= bound proves).
          std::optional<Time> exact;
          if (instance.n() > 0 && instance.n() <= config.guarantee_exact_n &&
              !instance.has_release_times()) {
            const BnbResult bnb = branch_and_bound(
                instance, BnbOptions{.upper_bound_hint = slot.metrics.makespan});
            if (bnb.proven) exact = bnb.optimal;
          }
          const GuaranteeReport report =
              check_guarantee(instance, schedule, exact);
          slot.guarantee_checked = true;
          slot.has_guarantee = report.has_guarantee;
          slot.compliance = report.compliance;
        }
      });

  // Single-threaded aggregation in (scheduler, instance) order: OnlineStats
  // accumulation order is fixed, so the result is bit-identical for any
  // thread count.
  CampaignResult out;
  out.instances = config.instances;
  out.cells.resize(names.size());
  for (std::size_t s = 0; s < names.size(); ++s) {
    CampaignCell& cell = out.cells[s];
    cell.scheduler = names[s];
    for (std::size_t i = 0; i < config.instances; ++i) {
      const TaskResult& slot = results[i][s];
      if (!slot.scheduled) {
        // Every unscheduled slot must carry a typed DomainError: the
        // worker either scheduled, recorded a rejection, or threw (which
        // aborted the campaign before aggregation). Anything else would
        // silently corrupt the per-reason breakdown.
        RESCHED_CHECK_MSG(slot.skipped,
                          "campaign: unscheduled task without a domain "
                          "rejection (scheduler '" + names[s] + "')");
        ++cell.skipped;
        ++cell.skipped_by_reason[static_cast<std::size_t>(slot.reason)];
        continue;
      }
      ++cell.scheduled;
      if (slot.guarantee_checked) {
        if (!slot.has_guarantee) {
          ++cell.guarantee_none;
        } else if (slot.compliance == Compliance::kProven) {
          ++cell.guarantee_proven;
        } else if (slot.compliance == Compliance::kViolated) {
          ++cell.guarantee_violated;
        } else {
          ++cell.guarantee_inconclusive;
        }
      }
      cell.makespan.add(static_cast<double>(slot.metrics.makespan));
      cell.utilization.add(slot.metrics.utilization);
      cell.mean_wait.add(slot.metrics.mean_wait);
      cell.max_wait.add(static_cast<double>(slot.metrics.max_wait));
      cell.mean_bounded_slowdown.add(slot.metrics.mean_bounded_slowdown);
      cell.seconds += slot.seconds;
    }
  }
  return out;
}

std::string CampaignCell::skip_reasons() const {
  std::string out;
  for (std::size_t r = 0; r < kDomainReasonCount; ++r) {
    if (skipped_by_reason[r] == 0) continue;
    if (!out.empty()) out += ' ';
    out += to_string(static_cast<DomainReason>(r)) + "=" +
           std::to_string(skipped_by_reason[r]);
  }
  return out;
}

Table CampaignResult::to_table(bool include_timing) const {
  std::vector<std::string> headers{"scheduler",  "ok",       "skip",
                                   "cmax.mean",  "cmax.max", "util.mean",
                                   "wait.mean",  "wait.max", "bsld.mean"};
  if (include_timing) headers.push_back("sched/s");
  Table table(std::move(headers));
  for (const CampaignCell& cell : cells) {
    std::vector<std::string> row{
        cell.scheduler,
        std::to_string(cell.scheduled),
        std::to_string(cell.skipped)};
    const auto fmt = [](double v) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.4g", v);
      return std::string(buffer);
    };
    row.push_back(fmt(cell.makespan.mean()));
    row.push_back(fmt(cell.makespan.max()));
    row.push_back(fmt(cell.utilization.mean()));
    row.push_back(fmt(cell.mean_wait.mean()));
    row.push_back(fmt(cell.max_wait.max()));
    row.push_back(fmt(cell.mean_bounded_slowdown.mean()));
    if (include_timing)
      row.push_back(fmt(cell.seconds > 0.0
                            ? static_cast<double>(cell.scheduled) /
                                  cell.seconds
                            : 0.0));
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace resched
