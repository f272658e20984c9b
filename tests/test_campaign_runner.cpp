// CampaignRunner: determinism across thread counts, domain handling, and
// the validation oracle.
//
// The contract under test (sim/campaign.hpp): the aggregated result is a
// pure function of (generator, config.seed, config.instances,
// config.schedulers) -- the thread count may only change wall-clock, never a
// metric. Per-index seed derivation plus single-threaded fixed-order
// aggregation make the numbers bit-identical, so the comparisons below are
// exact, not approximate.
#include "sim/campaign.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/step_profile.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"

namespace resched {
namespace {

Instance sweep_instance(std::uint64_t seed, bool reserved) {
  WorkloadConfig config;
  config.n = 40;
  config.m = 32;
  config.alpha = Rational(1, 2);
  Instance instance = random_workload(config, seed);
  if (!reserved) return instance;
  AlphaReservationConfig resa;
  resa.alpha = Rational(1, 2);
  resa.count = 6;
  resa.horizon = 400;
  resa.max_duration = 60;
  return with_alpha_restricted_reservations(instance, resa,
                                            seed ^ 0x9e3779b97f4a7c15ull);
}

void ExpectBitIdentical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.instances, b.instances);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const CampaignCell& x = a.cells[i];
    const CampaignCell& y = b.cells[i];
    EXPECT_EQ(x.scheduler, y.scheduler);
    EXPECT_EQ(x.scheduled, y.scheduled);
    EXPECT_EQ(x.skipped, y.skipped);
    // Fixed-order aggregation makes these bit-identical doubles.
    EXPECT_EQ(x.makespan.mean(), y.makespan.mean());
    EXPECT_EQ(x.makespan.max(), y.makespan.max());
    EXPECT_EQ(x.makespan.stddev(), y.makespan.stddev());
    EXPECT_EQ(x.utilization.mean(), y.utilization.mean());
    EXPECT_EQ(x.mean_wait.mean(), y.mean_wait.mean());
    EXPECT_EQ(x.max_wait.max(), y.max_wait.max());
    EXPECT_EQ(x.mean_bounded_slowdown.mean(), y.mean_bounded_slowdown.mean());
  }
  // The timing-free table is the user-facing determinism artifact.
  EXPECT_EQ(a.to_table(false).to_string(), b.to_table(false).to_string());
}

TEST(CampaignRunner, SameSeedAnyThreadCountSameAggregatedMetrics) {
  CampaignConfig config;
  config.instances = 10;
  config.seed = 31337;
  config.schedulers = {"lsrc", "conservative", "easy", "fcfs"};
  // Each instance is generated once -- on first touch, under a per-index
  // std::call_once -- however many scheduler tasks race to it.
  std::array<std::atomic<int>, 10> generated{};
  const InstanceGenerator generator = [&generated](std::size_t index,
                                                   std::uint64_t seed) {
    generated[index].fetch_add(1, std::memory_order_relaxed);
    return sweep_instance(seed, true);
  };
  const auto expect_generated_once = [&generated](std::size_t threads) {
    for (std::size_t i = 0; i < generated.size(); ++i) {
      EXPECT_EQ(generated[i].exchange(0), 1)
          << "instance " << i << " generated more than once (threads="
          << threads << ")";
    }
  };

  config.threads = 1;
  const CampaignResult baseline = run_campaign(generator, config);
  EXPECT_EQ(baseline.cells.size(), 4u);
  EXPECT_EQ(baseline.cells.front().scheduled, 10u);
  EXPECT_GT(baseline.cells.front().makespan.mean(), 0.0);
  expect_generated_once(1);

  for (const std::size_t threads : {2u, 3u, 8u, 16u}) {
    config.threads = threads;
    const CampaignResult run = run_campaign(generator, config);
    ASSERT_NO_FATAL_FAILURE(ExpectBitIdentical(baseline, run))
        << "threads=" << threads;
    expect_generated_once(threads);
  }

  // And a different seed genuinely changes the data (the test has teeth).
  config.seed = 31338;
  config.threads = 4;
  const CampaignResult other = run_campaign(generator, config);
  EXPECT_NE(baseline.cells.front().makespan.mean(),
            other.cells.front().makespan.mean());
}

TEST(CampaignRunner, OutOfDomainSchedulersAreCountedAsSkipped) {
  CampaignConfig config;
  config.instances = 4;
  config.seed = 5;
  config.threads = 2;
  // Shelf packers reject instances with reservations.
  config.schedulers = {"shelf-ff", "lsrc"};
  const InstanceGenerator generator = [](std::size_t, std::uint64_t seed) {
    return sweep_instance(seed, true);
  };
  const CampaignResult result = run_campaign(generator, config);
  EXPECT_EQ(result.cells[0].scheduler, "shelf-ff");
  EXPECT_EQ(result.cells[0].scheduled, 0u);
  EXPECT_EQ(result.cells[0].skipped, 4u);
  // The skip is typed: every rejection names the reservations capability.
  EXPECT_EQ(result.cells[0].skipped_by_reason[static_cast<std::size_t>(
                DomainReason::kReservations)],
            4u);
  EXPECT_EQ(result.cells[0].skip_reasons(), "reservations=4");
  EXPECT_EQ(result.cells[1].scheduled, 4u);
  EXPECT_EQ(result.cells[1].skipped, 0u);
  EXPECT_EQ(result.cells[1].skip_reasons(), "");

  // On reservation-free instances the shelf packers participate.
  const InstanceGenerator open_generator =
      [](std::size_t, std::uint64_t seed) {
        return sweep_instance(seed, false);
      };
  const CampaignResult open_result = run_campaign(open_generator, config);
  EXPECT_EQ(open_result.cells[0].scheduled, 4u);
}

TEST(CampaignRunner, SharedModeGeneratorExceptionsStillAbortTheCampaign) {
  // call_once's turns semantics must not swallow or double-run a throwing
  // generator: the failure propagates and aborts the campaign.
  CampaignConfig config;
  config.instances = 6;
  config.threads = 3;
  config.schedulers = {"fcfs"};
  const InstanceGenerator generator = [](std::size_t index, std::uint64_t) {
    if (index == 3) throw std::runtime_error("generator failure");
    return sweep_instance(index + 1, false);
  };
  EXPECT_THROW((void)run_campaign(generator, config), std::runtime_error);
}

namespace {
// A scheduler that trips a precondition three layers down (an empty window
// handed to StepProfile::min_in) -- exactly the failure mode the old
// catch(invalid_argument) skip handling used to misread as out-of-domain.
class BrokenPreconditionScheduler final : public Scheduler {
 public:
  [[nodiscard]] ScheduleOutcome schedule(
      const Instance& instance) const override {
    StepProfile profile(static_cast<std::int64_t>(instance.m()));
    (void)profile.min_in(5, 5);  // RESCHED_REQUIRE(from < to) fails
    return Schedule(instance.n());
  }
  [[nodiscard]] std::string name() const override {
    return "broken-precondition";
  }
};
}  // namespace

TEST(CampaignRunner, PreconditionViolationInsideSchedulerAbortsTheCampaign) {
  // Once per process (registration is not idempotent, and --gtest_repeat
  // would otherwise re-register). NOTE: this pollutes the global registry
  // for the rest of the binary -- every campaign test here must pass an
  // explicit scheduler list, never rely on the "empty = all" default.
  static const bool registered = [] {
    register_scheduler(
        "broken-precondition",
        [] { return std::make_unique<BrokenPreconditionScheduler>(); },
        "test-only: trips a profile precondition deep in the stack");
    return true;
  }();
  (void)registered;
  CampaignConfig config;
  config.instances = 3;
  config.threads = 2;
  config.schedulers = {"fcfs", "broken-precondition"};
  const InstanceGenerator generator = [](std::size_t, std::uint64_t seed) {
    return sweep_instance(seed, false);
  };
  // Not a skip: the campaign must abort with the underlying error.
  EXPECT_THROW((void)run_campaign(generator, config), std::invalid_argument);
}

TEST(CampaignRunner, UnknownSchedulerThrowsBeforeAnyWork) {
  CampaignConfig config;
  config.instances = 2;
  config.schedulers = {"no-such-algorithm"};
  const InstanceGenerator generator = [](std::size_t, std::uint64_t seed) {
    return sweep_instance(seed, false);
  };
  EXPECT_THROW((void)run_campaign(generator, config), std::invalid_argument);
}

TEST(CampaignRunner, GeneratorExceptionsPropagateToTheCaller) {
  CampaignConfig config;
  config.instances = 6;
  config.threads = 3;
  config.schedulers = {"fcfs"};
  const InstanceGenerator generator = [](std::size_t index, std::uint64_t) {
    if (index == 3) throw std::runtime_error("generator failure");
    return sweep_instance(index + 1, false);
  };
  EXPECT_THROW((void)run_campaign(generator, config), std::runtime_error);
}

TEST(CampaignRunner, EmptyCampaignProducesEmptyCells) {
  CampaignConfig config;
  config.instances = 0;
  config.schedulers = {"fcfs"};
  const InstanceGenerator generator = [](std::size_t, std::uint64_t seed) {
    return sweep_instance(seed, false);
  };
  const CampaignResult result = run_campaign(generator, config);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].scheduled, 0u);
  EXPECT_EQ(result.cells[0].skipped, 0u);
  EXPECT_EQ(result.to_table().rows(), 1u);
}

}  // namespace
}  // namespace resched
