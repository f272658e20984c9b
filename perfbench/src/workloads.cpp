#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "algorithms/scheduler.hpp"
#include "bounds/lower_bounds.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"
#include "scenario/matrix.hpp"
#include "scenario/scenario.hpp"
#include "scenario/swf_reader.hpp"
#include "sim/load_gen.hpp"
#include "sim/service_sim.hpp"
#include "timed_scheduler.hpp"
#include "trace.hpp"
#include "util/prng.hpp"

namespace perfbench {

namespace {

using resched::Instance;
using resched::LatencyRecorder;
using resched::Rational;
using resched::Schedule;
using resched::Scheduler;
using resched::ServiceStepResult;
using resched::Time;

// Every scheduler the per-layer metrics name (the built-in registry).
const std::vector<std::string> kAllSchedulers = {
    "conservative", "easy",      "fcfs",     "local-search", "lsrc",
    "lsrc-lpt",     "portfolio", "shelf-ff", "shelf-nf"};
// The service workloads' schedulers: suffix repair, warm-window re-solve
// and per-decision scratch rebuild. The end-to-end per-scheduler metrics
// name these three on every workload.
const std::vector<std::string> kServiceSchedulers = {"conservative", "easy",
                                                     "lsrc"};
const std::vector<std::string> kBatchSchedulers = {"lsrc", "conservative",
                                                   "easy", "fcfs"};
// Schedulers whose list bounds the paper proves: never VIOLATED.
const std::vector<std::string> kBoundedSchedulers = {
    "lsrc", "lsrc-lpt", "conservative", "easy", "portfolio", "local-search"};

// Leaf spans kept in memory per traced run (aggregates stay exact beyond).
constexpr std::size_t kLeafSpanCapacity = 100000;

bool contains(const std::vector<std::string>& names, const std::string& s) {
  return std::find(names.begin(), names.end(), s) != names.end();
}

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

// Linear-interpolation quantile q in [0, 1] of `values` (0 when empty).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double p99(const LatencyRecorder& recorder) {
  return recorder.count() > 0
             ? static_cast<double>(recorder.percentile(0.99))
             : 0.0;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Operation accounting: one attempted operation per checked unit of work
// (a service step, a batch schedule, a matrix cell); it failed if any of
// its checks did.
class Checks {
 public:
  explicit Checks(RunResult& out) : out_(out) {}

  class Op {
   public:
    void expect(bool ok, const std::string& what) {
      if (!ok && problem_.empty()) problem_ = what;
    }

   private:
    friend class Checks;
    std::string problem_;
  };

  void record(const Op& op) {
    ++out_.attempted;
    if (op.problem_.empty()) return;
    ++out_.failed;
    if (out_.failures.size() < 8) out_.failures.push_back(op.problem_);
  }

 private:
  RunResult& out_;
};

void put(RunResult& out, const std::string& name, double value,
         const std::string& unit) {
  out.metrics[name] = Metric{value, unit};
}

// Puts the median of `values` and notes its quartiles and sample count.
void put_median(RunResult& out, const std::string& name,
                const std::vector<double>& values, const std::string& unit) {
  put(out, name, median(values), unit);
  std::ostringstream note;
  note << name << ": median " << median(values) << " quartiles "
       << quantile(values, 0.25) << " .. " << quantile(values, 0.75) << " "
       << unit << ", n=" << values.size();
  out.notes.push_back(note.str());
}

// Puts the p99 of a pooled recorder, scaled, and notes its sample count.
void put_p99(RunResult& out, const std::string& name,
             const LatencyRecorder& recorder, double scale,
             const std::string& unit) {
  put(out, name, p99(recorder) * scale, unit);
  out.notes.push_back(name + ": p99 of " + std::to_string(recorder.count()) +
                      " pooled samples");
}

// Set-up runs kSetupReps times before the first pass, then again after
// every pass -- at least once and for at least kSetupSliceSeconds -- so
// its median samples the host over the whole run, not just its start.
constexpr std::size_t kSetupReps = 5;
constexpr double kSetupSliceSeconds = 0.002;

// Runs pass(j) for j = 0 .. k-1 in complete cycles: another cycle starts
// while fewer than `seconds` have passed and it should end within
// 1.25 x seconds. Complete cycles keep every per-pass average a fixed
// function of the inputs.
void run_cycles(double seconds, std::size_t k,
                const std::function<void(std::size_t)>& pass) {
  const std::int64_t start = now_ns();
  while (true) {
    const std::int64_t cycle_start = now_ns();
    for (std::size_t j = 0; j < k; ++j) pass(j);
    const double elapsed = seconds_between(start, now_ns());
    const double cycle = seconds_between(cycle_start, now_ns());
    if (elapsed >= seconds || elapsed + cycle > 1.25 * seconds) return;
  }
}

void merge_stats(CallStats& into, const CallStats& from) {
  into.calls += from.calls;
  into.queue_jobs += from.queue_jobs;
  into.busy_ns += from.busy_ns;
  into.probe_ns += from.probe_ns;
  into.call_ns.merge(from.call_ns);
  into.segments_observed += from.segments_observed;
  into.segments_sum += from.segments_sum;
  into.segments_max = std::max(into.segments_max, from.segments_max);
  into.replans += from.replans;
  into.mutations += from.mutations;
  into.index_builds += from.index_builds;
  into.allocs += from.allocs;
  into.replay.add(from.replay);
  into.waits.merge(from.waits);
  into.cmax_ratio_sum += from.cmax_ratio_sum;
  into.cmax_ratio_count += from.cmax_ratio_count;
}

// Per-scheduler stats of one pass, drained from the sink.
using PassStats = std::map<std::string, CallStats>;

PassStats drain_sink() {
  PassStats stats;
  for (const std::string& name : kAllSchedulers)
    stats[name] = call_sink().stats(name);
  call_sink().reset();
  return stats;
}

// The end-to-end metrics every workload reports.
void put_end_to_end_defaults(RunResult& out) {
  put(out, "setup_s", 0.0, "s");
  put(out, "peak_rss_mb", 0.0, "MiB");
  for (const std::string& s : kServiceSchedulers) {
    put(out, "events_per_s." + s, 0.0, "1/s");
    put(out, "decision_p99_us." + s, 0.0, "us");
  }
  put(out, "wait_p99_ticks", 0.0, "ticks");
  put(out, "jobs_per_s", 0.0, "1/s");
  put(out, "cmax_ratio", 0.0, "ratio");
  put(out, "report_s", 0.0, "s");
}

// The per-layer metrics every traced run reports (0 where a layer is not
// exercised by the workload).
void put_per_layer_defaults(RunResult& out) {
  for (const std::string& s : kAllSchedulers) {
    const std::string p = "algorithms." + s + ".";
    put(out, p + "calls", 0.0, "count");
    put(out, p + "ns_p50", 0.0, "ns");
    put(out, p + "ns_p99", 0.0, "ns");
    put(out, p + "busy_s", 0.0, "s");
    put(out, p + "queue_jobs", 0.0, "jobs");
  }
  for (const char* name :
       {"core.segments_mean", "core.segments_max", "core.mutations_per_call",
        "core.index_builds", "core.allocs_per_decision"})
    put(out, name, 0.0, "count");
  for (const char* name : {"core.earliest_fit_ns", "core.commit_ns",
                           "core.tentative_rollback_ns",
                           "sim.service.self_ns_per_event"})
    put(out, name, 0.0, "ns");
  for (const std::string& s : kServiceSchedulers)
    put(out, "sim.service.sched_share." + s, 0.0, "ratio");
  for (const char* name :
       {"sim.service.history_compactions", "sim.service.compacted_segments",
        "sim.service.plan_frames_rewound", "sim.service.suffix_jobs_replanned",
        "sim.service.decisions_incremental", "sim.service.decisions_scratch",
        "sim.service.deferred_dispatches", "sim.service.peak_queue_depth",
        "sim.service.churn_events", "sim.service.saturated_flags"})
    put(out, name, 0.0, "count");
  put(out, "sim.campaign.busy_share", 0.0, "ratio");
  put(out, "sim.campaign.longest_task_s", 0.0, "s");
  put(out, "sim.campaign.non_scheduler_s", 0.0, "s");
  put(out, "generators.instance_s", 0.0, "s");
  put(out, "scenario.swf_parse_s", 0.0, "s");
  put(out, "scenario.compile_s", 0.0, "s");
  for (const char* name :
       {"scenario.cells_held", "scenario.cells_violated",
        "scenario.cells_out_of_domain", "scenario.cells_inconclusive"})
    put(out, name, 0.0, "count");
  put(out, "trace.overhead_ratio", 0.0, "ratio");
  put(out, "trace.spans_per_pass", 0.0, "count");
}

// algorithms.* and core.* from the traced passes' merged stats.
void put_call_layers(RunResult& out, const PassStats& traced,
                     double passes) {
  std::uint64_t calls = 0;
  std::uint64_t replans = 0;
  std::uint64_t segments_observed = 0;
  std::uint64_t segments_sum = 0;
  std::uint64_t segments_max = 0;
  std::uint64_t mutations = 0;
  std::uint64_t index_builds = 0;
  std::uint64_t allocs = 0;
  ReplayStats replay;
  for (const auto& [name, s] : traced) {
    const std::string p = "algorithms." + name + ".";
    put(out, p + "calls", static_cast<double>(s.calls) / passes, "count");
    if (s.calls > 0) {
      put(out, p + "ns_p50", static_cast<double>(s.call_ns.percentile(0.5)),
          "ns");
      put(out, p + "ns_p99", p99(s.call_ns), "ns");
    }
    put(out, p + "busy_s", static_cast<double>(s.busy_ns) * 1e-9 / passes,
        "s");
    put(out, p + "queue_jobs",
        ratio(static_cast<double>(s.queue_jobs), static_cast<double>(s.calls)),
        "jobs");
    calls += s.calls;
    replans += s.replans;
    segments_observed += s.segments_observed;
    segments_sum += s.segments_sum;
    segments_max = std::max(segments_max, s.segments_max);
    mutations += s.mutations;
    index_builds += s.index_builds;
    allocs += s.allocs;
    replay.add(s.replay);
  }
  const auto per = [](auto num, std::uint64_t den) {
    return ratio(static_cast<double>(num), static_cast<double>(den));
  };
  put(out, "core.segments_mean", per(segments_sum, segments_observed),
      "count");
  put(out, "core.segments_max", static_cast<double>(segments_max), "count");
  put(out, "core.mutations_per_call", per(mutations, replans), "count");
  put(out, "core.index_builds", static_cast<double>(index_builds) / passes,
      "count");
  put(out, "core.allocs_per_decision", per(allocs, calls), "count");
  put(out, "core.earliest_fit_ns",
      per(replay.earliest_fit_ns, replay.placements), "ns");
  put(out, "core.commit_ns", per(replay.commit_ns, replay.placements), "ns");
  put(out, "core.tentative_rollback_ns",
      per(replay.tentative_rollback_ns, replay.placements), "ns");
  out.deterministic["core.index_builds"] =
      static_cast<double>(index_builds) / passes;
}

// ---------------------------------------------------------------------------
// The shared protocol. A workload is a list of sub-inputs generated from
// the seed in set-up; one pass runs one sub-input.

class Workload {
 public:
  virtual ~Workload() = default;

  // One set-up: builds the inputs from the seed. Repeated through the run;
  // every call builds the same inputs.
  virtual void build() = 0;
  // Called once after the first set-ups, before the warm-up pass.
  virtual void check_inputs(RunResult& out, Checks& checks) = 0;
  // The set-up layer metrics of a traced run (setup_s: median set-up).
  virtual void setup_layers(RunResult& out, double setup_s) = 0;
  // Number of sub-inputs in one cycle of the untraced run; the traced run
  // cycles over the first half of them.
  [[nodiscard]] virtual std::size_t subinputs() const = 0;
  // Runs sub-input j. With a tracer, schedulers run through
  // TimedScheduler and the caller has opened the workload span.
  virtual void pass(std::size_t j, Tracer* tracer) = 0;
  // Checks the last pass: on the first pass of sub-input j in full (it
  // becomes the reference), afterwards for equality with the reference.
  virtual void check(std::size_t j, bool traced, Checks& checks) = 0;
  // Folds the last (untraced) pass into the end-to-end statistics.
  virtual void add_timing(double wall) = 0;
  // Folds the last traced pass (wall without probe time) and the sink
  // stats it left into the per-layer statistics.
  virtual void add_traced(double wall, const PassStats& stats) = 0;
  // Probes for traced passes.
  [[nodiscard]] virtual ProbeOptions probe(Tracer& tracer) const = 0;
  // Probes for the untraced run's timed passes.
  [[nodiscard]] virtual ProbeOptions timing() const { return {}; }
  // How many threads the wrappers' probe work was spread over.
  [[nodiscard]] virtual double probe_threads() const { return 1.0; }
  virtual void end_to_end(RunResult& out) = 0;
  virtual void per_layer(RunResult& out, double traced_passes) = 0;
  // Quality results fixed by the seed, from the references; also sets
  // wait_p99_ticks and cmax_ratio when `out` holds end-to-end metrics.
  virtual void quality(RunResult& out) = 0;
};

// Records wait_p99_ticks and cmax_ratio as deterministic results and, on
// an untraced run, as end-to-end metrics.
void put_quality(RunResult& out, double wait_p99, double cmax_ratio) {
  out.deterministic["wait_p99_ticks"] = wait_p99;
  out.deterministic["cmax_ratio"] = cmax_ratio;
  if (out.metrics.count("wait_p99_ticks") == 0) return;
  put(out, "wait_p99_ticks", wait_p99, "ticks");
  put(out, "cmax_ratio", cmax_ratio, "ratio");
}

RunResult run_protocol(Workload& workload, const RunOptions& options) {
  RunResult out;
  Checks checks(out);
  call_sink().reset();
  call_sink().set_options(ProbeOptions{});
  std::vector<double> setup_times;
  const auto build = [&](double at_least_s) {
    const std::int64_t slice = now_ns();
    do {
      const std::int64_t start = now_ns();
      workload.build();
      setup_times.push_back(seconds_between(start, now_ns()));
    } while (seconds_between(slice, now_ns()) < at_least_s);
  };
  for (std::size_t i = 0; i < kSetupReps; ++i) build(0.0);
  workload.check_inputs(out, checks);

  // Warm-up: untimed; also the reference for sub-input 0.
  workload.pass(0, nullptr);
  workload.check(0, false, checks);
  (void)drain_sink();

  if (!options.trace) {
    call_sink().set_options(workload.timing());
    run_cycles(options.seconds, workload.subinputs(), [&](std::size_t j) {
      const std::int64_t start = now_ns();
      workload.pass(j, nullptr);
      const double wall = seconds_between(start, now_ns());
      workload.check(j, false, checks);
      workload.add_timing(wall);
      build(kSetupSliceSeconds);
    });
    call_sink().set_options(ProbeOptions{});
    put_end_to_end_defaults(out);
    put_median(out, "setup_s", setup_times, "s");
    workload.end_to_end(out);
    workload.quality(out);
    put(out, "peak_rss_mb", peak_rss_mib(), "MiB");
    return out;
  }

  // Traced run: each sub-input runs untraced, then traced; the pair gives
  // one tracing-overhead sample on identical inputs.
  Tracer tracer(kLeafSpanCapacity);
  const std::uint32_t root = tracer.intern("workload." + options.workload);
  const ProbeOptions probe = workload.probe(tracer);
  PassStats traced_stats;
  std::vector<double> overhead;
  std::size_t traced_passes = 0;
  run_cycles(options.seconds,
             std::max<std::size_t>(1, workload.subinputs() / 2),
             [&](std::size_t j) {
               std::int64_t start = now_ns();
               workload.pass(j, nullptr);
               const double plain = seconds_between(start, now_ns());
               workload.check(j, false, checks);
               (void)drain_sink();

               call_sink().set_options(probe);
               start = now_ns();
               {
                 ScopedSpan span(&tracer, root, true);
                 workload.pass(j, &tracer);
               }
               const double traced = seconds_between(start, now_ns());
               call_sink().set_options(ProbeOptions{});
               const PassStats stats = drain_sink();
               workload.check(j, true, checks);

               std::int64_t probe_ns = 0;
               for (const auto& [name, s] : stats) {
                 merge_stats(traced_stats[name], s);
                 probe_ns += s.probe_ns;
               }
               const double wall =
                   traced - 1e-9 * static_cast<double>(probe_ns) /
                                workload.probe_threads();
               overhead.push_back(ratio(wall, plain));
               workload.add_traced(wall, stats);
               ++traced_passes;
               build(kSetupSliceSeconds);
             });

  const double passes = static_cast<double>(traced_passes);
  put_per_layer_defaults(out);
  workload.setup_layers(out, median(setup_times));
  put_call_layers(out, traced_stats, passes);
  workload.per_layer(out, passes);
  workload.quality(out);
  put(out, "trace.overhead_ratio", median(overhead), "ratio");
  put(out, "trace.spans_per_pass",
      ratio(static_cast<double>(tracer.spans_recorded()), passes), "count");
  for (const Tracer::NameSummary& s : tracer.summary()) {
    std::ostringstream line;
    line << "span " << s.name << ": count=" << s.count
         << " total_s=" << s.total_s << " self_s=" << s.self_s;
    out.notes.push_back(line.str());
  }
  if (!options.trace_out.empty()) {
    std::ofstream file(options.trace_out);
    if (file)
      tracer.write(file, host_stamp() + " workload=" + options.workload +
                             " seed=" + std::to_string(options.seed));
    else
      out.notes.push_back("could not write " + options.trace_out);
  }
  return out;
}

std::vector<std::uint64_t> fork_seeds(std::uint64_t seed, std::size_t count) {
  resched::Prng root(seed);
  std::vector<std::uint64_t> seeds(count);
  for (std::uint64_t& s : seeds) s = root.fork_seed();
  return seeds;
}

// ---------------------------------------------------------------------------
// service / service-churn

// Did the step's backlog diverge? The library's `saturated` flag also
// trips when churn cancels measure-phase jobs: its rate test counts only
// completed jobs against the offered rate, although cancelled ones are
// meant to be "accounted, not blamed" (sim/service_sim.hpp). A flagged
// step whose queue drained and whose completion rate, with the cancelled
// jobs added back, still reaches the saturation fraction did not diverge.
// Without churn this is exactly the flag. The flag itself is reported as
// sim.service.saturated_flags.
bool diverged(const ServiceStepResult& r, const resched::ServiceConfig& c) {
  if (!r.saturated) return false;
  if (r.canceled == 0 || r.end_queue_depth != 0 ||
      r.completed + r.canceled != r.arrivals || r.completed == 0)
    return true;
  const double served = static_cast<double>(r.completed);
  const double corrected =
      r.sustained_rate * (served + static_cast<double>(r.canceled)) / served;
  return corrected < c.saturation_fraction * r.offered_rate;
}

// The step result minus its wall-clock recorder: a pure function of the
// inputs. A traced pass's replays copy profiles inside the step's timed
// decision window, and the library counts those copies' allocations in
// decision_allocs, so traced passes compare without it
// (core.allocs_per_decision counts around the scheduler call only).
ServiceStepResult deterministic_view(ServiceStepResult result, bool traced) {
  result.decision_ns.reset();
  if (traced) result.decision_allocs = 0;
  return result;
}

class ServiceWorkload final : public Workload {
 public:
  ServiceWorkload(const RunOptions& options, bool churn)
      : rate_(churn ? 700.0 : 800.0),
        seeds_(fork_seeds(options.seed, kSubseeds)),
        ref_(seeds_.size()) {
    load_.m = 256;
    load_.p_min = 1;
    load_.p_max = 30;
    load_.log_uniform_p = true;
    load_.width = resched::WidthDistribution::kPowersOfTwo;
    load_.alpha = Rational(1, 2);
    config_.phases = resched::ServicePhases{400, 8000, 400};
    config_.dispatch_window = 64;
    config_.record_wall_latency = true;
    if (churn) config_.churn.events_per_kilotick = 40.0;
    for (const std::string& name : kServiceSchedulers) {
      bare_.push_back(resched::make_scheduler(name));
      wrapped_.push_back(std::make_unique<TimedScheduler>(name, call_sink()));
    }
    const std::size_t k = kServiceSchedulers.size();
    events_.resize(k);
    decision_ns_.resize(k);
    step_wall_.assign(k, 0.0);
    step_busy_.assign(k, 0.0);
  }

  void build() override {
    // Every sub-input's arrival stream, drawn from the LoadGen the step
    // itself runs, and the offered load it makes.
    double area = 0.0;
    double span = 0.0;
    for (const std::uint64_t seed : seeds_) {
      resched::LoadGen gen(load_, seed);
      gen.set_rate(rate_);
      Time last = 0;
      for (std::uint64_t i = 0; i < config_.phases.total(); ++i) {
        const resched::ArrivalSpec a = gen.next();
        area += static_cast<double>(a.q) * static_cast<double>(a.p);
        last = a.time;
      }
      span += static_cast<double>(last);
    }
    offered_load_ = ratio(area, static_cast<double>(load_.m) * span);
  }

  void check_inputs(RunResult& out, Checks& checks) override {
    Checks::Op op;
    op.expect(offered_load_ < 1.0, "offered load at or above capacity");
    checks.record(op);
    out.notes.push_back("offered utilization " +
                        std::to_string(offered_load_));
  }

  void setup_layers(RunResult& out, double setup_s) override {
    put(out, "generators.instance_s",
        setup_s / static_cast<double>(seeds_.size()), "s");
  }

  std::size_t subinputs() const override { return seeds_.size(); }

  void pass(std::size_t j, Tracer* tracer) override {
    const std::uint32_t step_name =
        tracer != nullptr ? tracer->intern("sim.run_service_step") : 0;
    steps_.clear();
    walls_.clear();
    for (std::size_t i = 0; i < bare_.size(); ++i) {
      const Scheduler& scheduler =
          tracer != nullptr ? *wrapped_[i] : *bare_[i];
      ScopedSpan span(tracer, step_name, true);
      const std::int64_t start = now_ns();
      steps_.push_back(resched::run_service_step(scheduler, load_, seeds_[j],
                                                 rate_, config_));
      walls_.push_back(seconds_between(start, now_ns()));
    }
  }

  void check(std::size_t j, bool traced, Checks& checks) override {
    if (ref_[j].empty()) {
      for (std::size_t i = 0; i < steps_.size(); ++i) {
        const ServiceStepResult& r = steps_[i];
        const std::string& name = kServiceSchedulers[i];
        Checks::Op op;
        op.expect(!diverged(r, config_), name + ": step saturated");
        op.expect(r.arrivals == config_.phases.total(),
                  name + ": arrivals != generated jobs");
        op.expect(r.completed + r.canceled == r.arrivals,
                  name + ": completed + canceled != arrivals");
        if (name != "lsrc")
          op.expect(r.decisions_scratch == 0 && r.decisions_incremental > 0,
                    name + ": fell back to the scratch planning path");
        op.expect(r.decision_ns.count() > 0, name + ": no measured decisions");
        checks.record(op);
        ref_[j].push_back(deterministic_view(r, false));
      }
      return;
    }
    for (std::size_t i = 0; i < steps_.size(); ++i) {
      Checks::Op op;
      op.expect(deterministic_view(steps_[i], traced) ==
                    deterministic_view(ref_[j][i], traced),
                kServiceSchedulers[i] + ": step differs from the reference");
      checks.record(op);
    }
  }

  void add_timing(double wall) override {
    double completed = 0.0;
    double step_wall = 0.0;
    for (std::size_t i = 0; i < steps_.size(); ++i) {
      const ServiceStepResult& r = steps_[i];
      events_[i].push_back(
          ratio(static_cast<double>(r.decisions), walls_[i]));
      decision_ns_[i].merge(r.decision_ns);
      completed += static_cast<double>(r.completed);
      step_wall += walls_[i];
    }
    jobs_.push_back(ratio(completed, step_wall));
    pass_walls_.push_back(wall);
  }

  void add_traced(double, const PassStats& stats) override {
    for (std::size_t i = 0; i < steps_.size(); ++i) {
      const CallStats& s = stats.at(kServiceSchedulers[i]);
      const double wall = walls_[i] - 1e-9 * static_cast<double>(s.probe_ns);
      const double busy = 1e-9 * static_cast<double>(s.busy_ns);
      step_wall_[i] += wall;
      step_busy_[i] += busy;
      self_s_ += wall - busy;
      decisions_ += static_cast<double>(steps_[i].decisions);
    }
  }

  ProbeOptions probe(Tracer& tracer) const override {
    ProbeOptions probe;
    probe.tracer = &tracer;
    probe.replay_every = 64;
    return probe;
  }

  void end_to_end(RunResult& out) override {
    for (std::size_t i = 0; i < kServiceSchedulers.size(); ++i) {
      put_median(out, "events_per_s." + kServiceSchedulers[i], events_[i],
                 "1/s");
      put_p99(out, "decision_p99_us." + kServiceSchedulers[i],
              decision_ns_[i], 1e-3, "us");
    }
    put_median(out, "jobs_per_s", jobs_, "1/s");
    put_median(out, "report_s", pass_walls_, "s");
  }

  void per_layer(RunResult& out, double) override {
    put(out, "sim.service.self_ns_per_event", 1e9 * ratio(self_s_, decisions_),
        "ns");
    for (std::size_t i = 0; i < kServiceSchedulers.size(); ++i) {
      const double share = ratio(step_busy_[i], step_wall_[i]);
      put(out, "sim.service.sched_share." + kServiceSchedulers[i], share,
          "ratio");
      out.notes.push_back("mechanism: " + kServiceSchedulers[i] +
                          " scheduler busy / step wall = " +
                          std::to_string(share));
    }
    // Step counters per pass (the three steps summed; the queue peak and
    // the saturation flags over all of them), from the references of the
    // traced sub-inputs: deterministic.
    std::map<std::string, double> counters;
    double passes = 0.0;
    for (const std::vector<ServiceStepResult>& steps : ref_) {
      if (steps.empty()) continue;
      passes += 1.0;
      for (const ServiceStepResult& r : steps) {
        counters["history_compactions"] +=
            static_cast<double>(r.history_compactions);
        counters["compacted_segments"] +=
            static_cast<double>(r.compacted_segments);
        counters["plan_frames_rewound"] +=
            static_cast<double>(r.plan_frames_rewound);
        counters["suffix_jobs_replanned"] +=
            static_cast<double>(r.suffix_jobs_replanned);
        counters["decisions_incremental"] +=
            static_cast<double>(r.decisions_incremental);
        counters["decisions_scratch"] +=
            static_cast<double>(r.decisions_scratch);
        counters["deferred_dispatches"] +=
            static_cast<double>(r.deferred_dispatches);
        counters["churn_events"] += static_cast<double>(r.churn_events);
        counters["saturated_flags"] += r.saturated ? 1.0 : 0.0;
        counters["peak_queue_depth"] =
            std::max(counters["peak_queue_depth"],
                     static_cast<double>(r.peak_queue_depth));
      }
    }
    for (auto& [name, value] : counters) {
      if (name != "peak_queue_depth" && name != "saturated_flags")
        value /= passes;
      put(out, "sim.service." + name, value, "count");
      out.deterministic["sim.service." + name] = value;
    }
  }

  void quality(RunResult& out) override {
    // Pooled over every sub-input with a reference: the largest of the
    // three schedulers' wait p99, and the largest mean offered / sustained
    // rate (how much longer serving the measured jobs took than offering
    // them).
    double wait = 0.0;
    double stretch = 0.0;
    for (std::size_t i = 0; i < kServiceSchedulers.size(); ++i) {
      LatencyRecorder waits;
      double sum = 0.0;
      double count = 0.0;
      for (const std::vector<ServiceStepResult>& steps : ref_) {
        if (steps.empty()) continue;
        waits.merge(steps[i].wait_ticks);
        sum += ratio(steps[i].offered_rate, steps[i].sustained_rate);
        count += 1.0;
      }
      wait = std::max(wait, p99(waits));
      stretch = std::max(stretch, ratio(sum, count));
    }
    put_quality(out, wait, stretch);
  }

 private:
  static constexpr std::size_t kSubseeds = 32;

  double rate_;
  double offered_load_ = 0.0;
  resched::LoadGenConfig load_;
  resched::ServiceConfig config_;
  std::vector<std::uint64_t> seeds_;
  std::vector<std::unique_ptr<Scheduler>> bare_;
  std::vector<std::unique_ptr<Scheduler>> wrapped_;
  // Last pass.
  std::vector<ServiceStepResult> steps_;
  std::vector<double> walls_;
  // [sub-input][scheduler]
  std::vector<std::vector<ServiceStepResult>> ref_;
  // Untraced statistics.
  std::vector<std::vector<double>> events_;
  std::vector<LatencyRecorder> decision_ns_;
  std::vector<double> jobs_;
  std::vector<double> pass_walls_;
  // Traced statistics.
  std::vector<double> step_wall_;
  std::vector<double> step_busy_;
  double self_s_ = 0.0;
  double decisions_ = 0.0;
};

// ---------------------------------------------------------------------------
// batch

class BatchWorkload final : public Workload {
 public:
  explicit BatchWorkload(const RunOptions& options)
      : seeds_(fork_seeds(options.seed, kInstances)),
        ref_(seeds_.size()),
        lower_bounds_(seeds_.size(), 1.0) {
    for (const std::string& name : kBatchSchedulers) {
      bare_.push_back(resched::make_scheduler(name));
      wrapped_.push_back(std::make_unique<TimedScheduler>(name, call_sink()));
    }
    events_.resize(kBatchSchedulers.size());
    per_job_ns_.resize(kBatchSchedulers.size());
  }

  void build() override {
    instances_.clear();
    for (const std::uint64_t seed : seeds_) instances_.push_back(make(seed));
  }

  void check_inputs(RunResult&, Checks&) override {}

  void setup_layers(RunResult& out, double setup_s) override {
    put(out, "generators.instance_s",
        setup_s / static_cast<double>(seeds_.size()), "s");
  }

  std::size_t subinputs() const override { return seeds_.size(); }

  void pass(std::size_t j, Tracer* tracer) override {
    schedules_.clear();
    walls_.clear();
    for (std::size_t s = 0; s < bare_.size(); ++s) {
      const Scheduler& scheduler =
          tracer != nullptr ? *wrapped_[s] : *bare_[s];
      const std::int64_t start = now_ns();
      resched::ScheduleOutcome outcome = scheduler.schedule(instances_[j]);
      walls_.push_back(seconds_between(start, now_ns()));
      if (outcome.ok())
        schedules_.emplace_back(std::move(outcome).value());
      else
        schedules_.emplace_back();
    }
    last_ = j;
  }

  void check(std::size_t j, bool, Checks& checks) override {
    const Instance& instance = instances_[j];
    if (ref_[j].empty()) {
      lower_bounds_[j] = static_cast<double>(
          std::max<Time>(1, resched::makespan_lower_bound(instance)));
      for (std::size_t s = 0; s < schedules_.size(); ++s) {
        Checks::Op op;
        op.expect(schedules_[s].has_value(),
                  kBatchSchedulers[s] + ": instance rejected");
        if (schedules_[s].has_value()) {
          const resched::ValidationResult valid =
              schedules_[s]->validate(instance);
          op.expect(valid.ok, kBatchSchedulers[s] + ": invalid schedule: " +
                                  valid.error);
        }
        checks.record(op);
      }
      ref_[j] = schedules_;
      return;
    }
    for (std::size_t s = 0; s < schedules_.size(); ++s) {
      Checks::Op op;
      op.expect(schedules_[s] == ref_[j][s],
                kBatchSchedulers[s] + ": schedule differs from the reference");
      checks.record(op);
    }
  }

  void add_timing(double wall) override {
    const double n = static_cast<double>(instances_[last_].n());
    double busy = 0.0;
    for (std::size_t s = 0; s < walls_.size(); ++s) {
      events_[s].push_back(ratio(n, walls_[s]));
      per_job_ns_[s].record(static_cast<std::int64_t>(1e9 * walls_[s] / n));
      busy += walls_[s];
    }
    jobs_.push_back(ratio(n * static_cast<double>(walls_.size()), busy));
    pass_walls_.push_back(wall);
  }

  void add_traced(double, const PassStats&) override {}

  ProbeOptions probe(Tracer& tracer) const override {
    ProbeOptions probe;
    probe.tracer = &tracer;
    probe.replay_every = 1;
    return probe;
  }

  void end_to_end(RunResult& out) override {
    for (std::size_t s = 0; s < kBatchSchedulers.size(); ++s) {
      const std::string& name = kBatchSchedulers[s];
      if (!contains(kServiceSchedulers, name)) continue;
      put_median(out, "events_per_s." + name, events_[s], "1/s");
      put_p99(out, "decision_p99_us." + name, per_job_ns_[s], 1e-3, "us");
    }
    put_median(out, "jobs_per_s", jobs_, "1/s");
    put_median(out, "report_s", pass_walls_, "s");
  }

  void per_layer(RunResult&, double) override {}

  void quality(RunResult& out) override {
    // Waits here reach 10^5 ticks, where LatencyRecorder buckets are
    // 1024 wide; the p99 is taken exactly from the sorted waits instead.
    double ratio_sum = 0.0;
    double ratio_count = 0.0;
    double wait = 0.0;
    std::vector<Time> waits;
    for (std::size_t s = 0; s < kBatchSchedulers.size(); ++s) {
      waits.clear();
      for (std::size_t j = 0; j < ref_.size(); ++j) {
        if (ref_[j].empty() || !ref_[j][s].has_value()) continue;
        const Schedule& schedule = *ref_[j][s];
        ratio_sum += static_cast<double>(schedule.makespan(instances_[j])) /
                     lower_bounds_[j];
        ratio_count += 1.0;
        for (const resched::Job& job : instances_[j].jobs())
          waits.push_back(schedule.start(job.id) - job.release);
      }
      if (waits.empty() || !contains(kServiceSchedulers, kBatchSchedulers[s]))
        continue;
      const auto rank = waits.begin() + static_cast<std::ptrdiff_t>(
                                            0.99 * static_cast<double>(
                                                       waits.size() - 1));
      std::nth_element(waits.begin(), rank, waits.end());
      wait = std::max(wait, static_cast<double>(*rank));
    }
    put_quality(out, wait, ratio(ratio_sum, ratio_count));
  }

 private:
  static constexpr std::size_t kInstances = 16;
  static constexpr std::size_t kJobs = 20000;

  static Instance make(std::uint64_t seed) {
    resched::Prng prng(seed);
    resched::WorkloadConfig jobs;
    jobs.n = kJobs;
    jobs.m = 64;
    jobs.alpha = Rational(1, 2);
    resched::AlphaReservationConfig reservations;
    reservations.count = 2000;
    reservations.horizon = static_cast<Time>(20 * kJobs);
    reservations.max_duration = 200;
    reservations.alpha = Rational(1, 2);
    const std::uint64_t job_seed = prng.fork_seed();
    const std::uint64_t reservation_seed = prng.fork_seed();
    return resched::with_alpha_restricted_reservations(
        resched::random_workload(jobs, job_seed), reservations,
        reservation_seed);
  }

  std::vector<std::uint64_t> seeds_;
  std::vector<Instance> instances_;
  std::vector<std::unique_ptr<Scheduler>> bare_;
  std::vector<std::unique_ptr<Scheduler>> wrapped_;
  // Last pass.
  std::size_t last_ = 0;
  std::vector<std::optional<Schedule>> schedules_;
  std::vector<double> walls_;
  // [instance][scheduler]
  std::vector<std::vector<std::optional<Schedule>>> ref_;
  std::vector<double> lower_bounds_;
  // Untraced statistics.
  std::vector<std::vector<double>> events_;
  std::vector<LatencyRecorder> per_job_ns_;
  std::vector<double> jobs_;
  std::vector<double> pass_walls_;
};

// ---------------------------------------------------------------------------
// matrix

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string bare_name(const std::string& registry_name) {
  const std::string prefix = timed_name("");
  return registry_name.rfind(prefix, 0) == 0
             ? registry_name.substr(prefix.size())
             : registry_name;
}

class MatrixWorkload final : public Workload {
 public:
  explicit MatrixWorkload(const RunOptions& options)
      : swf_text_(read_file(options.swf_path)) {
    config_.seed = options.seed;
    config_.instances = kInstances;
    config_.threads = std::min<std::size_t>(
        4, std::max(1u, std::thread::hardware_concurrency()));
    config_.guarantee_exact_n = 9;
    config_.schedulers = register_timed_schedulers();
  }

  void build() override {
    // Parse the trace, build the scenario list and compile every
    // availability program (run_scenario_matrix compiles them again
    // inside the timed region).
    const std::int64_t start = now_ns();
    const resched::SwfTrace trace = resched::parse_swf_trace(swf_text_);
    specs_ = resched::stock_scenarios(kM, trace);
    const std::int64_t parsed = now_ns();
    for (const resched::ScenarioSpec& spec : specs_) {
      std::optional<resched::CompiledScenario> reference;
      if (spec.reference.has_value())
        reference = resched::compile_scenario(*spec.reference);
      (void)resched::compile_scenario(
          spec.program, reference.has_value() ? &reference->curve : nullptr);
    }
    parse_times_.push_back(seconds_between(start, parsed));
    compile_times_.push_back(seconds_between(parsed, now_ns()));
  }

  void check_inputs(RunResult&, Checks&) override {
    // The warm-up pass, the reference, also records schedule quality.
    ProbeOptions quality;
    quality.quality = true;
    call_sink().set_options(quality);
  }

  void setup_layers(RunResult& out, double) override {
    put(out, "scenario.swf_parse_s", median(parse_times_), "s");
    put(out, "scenario.compile_s", median(compile_times_), "s");
  }

  std::size_t subinputs() const override { return 1; }

  void pass(std::size_t, Tracer* tracer) override {
    const std::uint32_t name =
        tracer != nullptr ? tracer->intern("scenario.run_scenario_matrix") : 0;
    ScopedSpan span(tracer, name, true);
    if (tracer != nullptr) tracer->set_ambient_parent(span.id());
    const std::int64_t cpu_start = process_cpu_ns();
    result_ = resched::run_scenario_matrix(specs_, config_);
    pass_cpu_s_ = 1e-9 * static_cast<double>(process_cpu_ns() - cpu_start);
    if (tracer != nullptr) tracer->set_ambient_parent(kNoSpan);
  }

  void check(std::size_t, bool, Checks& checks) override {
    if (ref_.empty()) {
      quality_ = drain_sink();
      call_sink().set_options(ProbeOptions{});
      for (const resched::ScenarioCell& cell : result_.cells) {
        const std::string scheduler = bare_name(cell.campaign.scheduler);
        Checks::Op op;
        if (contains(kBoundedSchedulers, scheduler))
          op.expect(cell.verdict != resched::CellVerdict::kViolated,
                    cell.scenario + " x " + scheduler +
                        ": proven list bound VIOLATED");
        if (cell.scenario == "soak" && scheduler == "fcfs")
          op.expect(cell.verdict == resched::CellVerdict::kViolated,
                    "soak x fcfs no longer VIOLATED");
        checks.record(op);
        ref_.push_back(cell.verdict);
        verdict_counts_[cell.verdict] += 1.0;
      }
      return;
    }
    for (std::size_t c = 0; c < ref_.size(); ++c) {
      Checks::Op op;
      op.expect(c < result_.cells.size() && result_.cells[c].verdict == ref_[c],
                "matrix cell " + std::to_string(c) +
                    " differs from the reference");
      checks.record(op);
    }
  }

  // Timed in CPU time (see ProbeOptions::cpu_clock): the pass's process
  // CPU time, and each call's thread CPU time.
  void add_timing(double) override {
    double placed = 0.0;
    for (const auto& [name, s] : drain_sink()) {
      placed += static_cast<double>(s.queue_jobs);
      call_ns_[name].merge(s.call_ns);
      if (s.calls > 0)
        events_[name].push_back(ratio(static_cast<double>(s.calls),
                                      1e-9 * static_cast<double>(s.busy_ns)));
    }
    jobs_.push_back(ratio(placed, pass_cpu_s_));
    pass_cpu_.push_back(pass_cpu_s_);
  }

  void add_traced(double wall, const PassStats& stats) override {
    const double threads = probe_threads();
    double busy = 0.0;
    for (const auto& [name, s] : stats) {
      busy += 1e-9 * static_cast<double>(s.busy_ns);
      if (s.calls > 0)
        longest_task_ = std::max(longest_task_,
                                 1e-9 * static_cast<double>(s.call_ns.max()));
    }
    busy_share_ += ratio(busy, threads * wall);
    non_scheduler_ += threads * wall - busy;
  }

  ProbeOptions probe(Tracer& tracer) const override {
    ProbeOptions probe;
    probe.tracer = &tracer;
    probe.replay_every = 1;
    return probe;
  }

  double probe_threads() const override {
    return static_cast<double>(config_.threads);
  }

  ProbeOptions timing() const override {
    ProbeOptions timing;
    timing.cpu_clock = true;
    return timing;
  }

  void end_to_end(RunResult& out) override {
    for (const std::string& name : kServiceSchedulers) {
      put_median(out, "events_per_s." + name, events_[name], "1/s");
      put_p99(out, "decision_p99_us." + name, call_ns_[name], 1e-3, "us");
    }
    put_median(out, "jobs_per_s", jobs_, "1/s");
    put_median(out, "report_s", pass_cpu_, "s");
  }

  void per_layer(RunResult& out, double passes) override {
    put(out, "sim.campaign.busy_share", busy_share_ / passes, "ratio");
    put(out, "sim.campaign.longest_task_s", longest_task_, "s");
    put(out, "sim.campaign.non_scheduler_s", non_scheduler_ / passes, "s");
    const std::pair<const char*, resched::CellVerdict> cells[] = {
        {"scenario.cells_held", resched::CellVerdict::kHeld},
        {"scenario.cells_violated", resched::CellVerdict::kViolated},
        {"scenario.cells_out_of_domain", resched::CellVerdict::kOutOfDomain},
        {"scenario.cells_inconclusive", resched::CellVerdict::kInconclusive}};
    for (const auto& [name, verdict] : cells) {
      put(out, name, verdict_counts_[verdict], "count");
      out.deterministic[name] = verdict_counts_[verdict];
    }
  }

  void quality(RunResult& out) override {
    double wait = 0.0;
    double ratio_sum = 0.0;
    double ratio_count = 0.0;
    for (const auto& [name, s] : quality_) {
      if (contains(kServiceSchedulers, name))
        wait = std::max(wait, p99(s.waits));
      ratio_sum += s.cmax_ratio_sum;
      ratio_count += static_cast<double>(s.cmax_ratio_count);
    }
    put_quality(out, wait, ratio(ratio_sum, ratio_count));
  }

 private:
  static constexpr resched::ProcCount kM = 32;
  // Instances per scenario: enough scheduled jobs per pass for a steady
  // wait p99 across seeds.
  static constexpr std::size_t kInstances = 32;

  std::string swf_text_;
  std::vector<resched::ScenarioSpec> specs_;
  std::vector<double> parse_times_;
  std::vector<double> compile_times_;
  resched::ScenarioMatrixConfig config_;
  resched::ScenarioMatrixResult result_;
  std::vector<resched::CellVerdict> ref_;
  std::map<resched::CellVerdict, double> verdict_counts_;
  PassStats quality_;
  double pass_cpu_s_ = 0.0;  // last pass
  // Untraced statistics.
  std::map<std::string, std::vector<double>> events_;
  std::map<std::string, LatencyRecorder> call_ns_;
  std::vector<double> jobs_;
  std::vector<double> pass_cpu_;
  // Traced statistics.
  double busy_share_ = 0.0;
  double longest_task_ = 0.0;
  double non_scheduler_ = 0.0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"service", "service-churn",
                                                 "batch", "matrix"};
  return names;
}

RunResult run_workload(const RunOptions& options) {
  std::unique_ptr<Workload> workload;
  if (options.workload == "service" || options.workload == "service-churn")
    workload = std::make_unique<ServiceWorkload>(
        options, options.workload == "service-churn");
  else if (options.workload == "batch")
    workload = std::make_unique<BatchWorkload>(options);
  else if (options.workload == "matrix")
    workload = std::make_unique<MatrixWorkload>(options);
  else
    throw std::invalid_argument("unknown workload: " + options.workload);
  return run_protocol(*workload, options);
}

std::string host_stamp() {
  std::string load = "unknown";
  std::ifstream loadavg("/proc/loadavg");
  std::string one, five, fifteen;
  if (loadavg >> one >> five >> fifteen) load = one + "/" + five + "/" + fifteen;
  std::ostringstream out;
  out << "nproc=" << std::thread::hardware_concurrency()
      << " loadavg=" << load << " build=" << PERFBENCH_BUILD_TYPE
      << " compiler=\"" << PERFBENCH_COMPILER << "\"";
  return out.str();
}

}  // namespace perfbench
