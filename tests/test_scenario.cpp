// Scenario DSL: model validation, compile semantics (ramp staircase,
// repeat, wait_to_cross), skyline decomposition, the .scn text format
// (round-trip, error positions), and the committed fixture pins that keep
// tests/data/*.scn byte-identical to the stock program builders.
#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "algorithms/scheduler.hpp"
#include "generators/workload.hpp"
#include "scenario/scn_format.hpp"

namespace resched {
namespace {

[[nodiscard]] std::string fixture_path(const std::string& name) {
  return std::string(RESCHED_TEST_DATA_DIR) + "/" + name;
}

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------------
// Model validation
// ---------------------------------------------------------------------------

TEST(Scenario, ValidateRejectsMalformedPrograms) {
  ScenarioProgram program;
  program.name = "ok";
  program.steps = {soak_at(4, 10)};
  EXPECT_NO_THROW(validate_program(program));

  ScenarioProgram unnamed = program;
  unnamed.name = "";
  EXPECT_THROW(validate_program(unnamed), std::invalid_argument);

  ScenarioProgram bad_name = program;
  bad_name.name = "has space";
  EXPECT_THROW(validate_program(bad_name), std::invalid_argument);

  ScenarioProgram bad_repeat = program;
  bad_repeat.repeat = 0;
  EXPECT_THROW(validate_program(bad_repeat), std::invalid_argument);

  ScenarioProgram zero_ramp = program;
  zero_ramp.steps = {ramp_to(8, 0)};
  EXPECT_THROW(validate_program(zero_ramp), std::invalid_argument);

  ScenarioProgram timed_jump = program;
  timed_jump.steps = {ScenarioStep{ScenarioStepKind::kJumpTo, 3, 5}};
  EXPECT_THROW(validate_program(timed_jump), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Compile semantics
// ---------------------------------------------------------------------------

TEST(Scenario, SoakAndJumpCompileToTheObviousStaircase) {
  ScenarioProgram program;
  program.name = "stair";
  program.initial = 12;
  program.steps = {soak_at(12, 20), jump_to(4), soak_at(4, 10), jump_to(12)};
  const CompiledScenario compiled = compile_scenario(program);
  EXPECT_EQ(compiled.horizon, 30);
  EXPECT_EQ(compiled.curve.value_at(0), 12);
  EXPECT_EQ(compiled.curve.value_at(19), 12);
  EXPECT_EQ(compiled.curve.value_at(20), 4);
  EXPECT_EQ(compiled.curve.value_at(29), 4);
  EXPECT_EQ(compiled.curve.value_at(30), 12);
  EXPECT_EQ(compiled.curve.final_value(), 12);
}

TEST(Scenario, RampIsTheExactIntegerStaircase) {
  // 0 -> 10 over 25 ticks: level(o) = floor(10 * o / 25).
  ScenarioProgram up;
  up.name = "up";
  up.initial = 0;
  up.steps = {ramp_to(10, 25)};
  const StepProfile curve = compile_scenario(up).curve;
  for (Time o = 0; o <= 25; ++o)
    EXPECT_EQ(curve.value_at(o), 10 * o / 25) << "offset " << o;
  // Starts at the old level, lands exactly on the target at t0 + d.
  EXPECT_EQ(curve.value_at(0), 0);
  EXPECT_EQ(curve.value_at(24), 9);
  EXPECT_EQ(curve.value_at(25), 10);
  EXPECT_EQ(curve.final_value(), 10);

  // Downward ramp mirrors it: 32 -> 24 over 120 (the daily_cycle shape).
  ScenarioProgram down;
  down.name = "down";
  down.initial = 32;
  down.steps = {ramp_to(24, 120)};
  const StepProfile fall = compile_scenario(down).curve;
  for (Time o = 0; o <= 120; ++o)
    EXPECT_EQ(fall.value_at(o), 32 - 8 * o / 120) << "offset " << o;
}

TEST(Scenario, RampToTheCurrentLevelOnlyAdvancesTime) {
  ScenarioProgram program;
  program.name = "flat";
  program.initial = 7;
  program.steps = {ramp_to(7, 50)};
  const CompiledScenario compiled = compile_scenario(program);
  EXPECT_EQ(compiled.horizon, 50);
  EXPECT_EQ(compiled.curve, StepProfile(7));
}

TEST(Scenario, RepeatConcatenatesRounds) {
  const ScenarioProgram program = flash_crowd_program(32);  // repeat 4
  const CompiledScenario compiled = compile_scenario(program);
  EXPECT_EQ(compiled.horizon, 4 * 250);
  for (int round = 0; round < 4; ++round) {
    const Time base = 250 * round;
    EXPECT_EQ(compiled.curve.value_at(base), 32);
    EXPECT_EQ(compiled.curve.value_at(base + 200), 8);
    EXPECT_EQ(compiled.curve.value_at(base + 249), 8);
  }
  EXPECT_EQ(compiled.curve.final_value(), 32);
}

TEST(Scenario, WaitToCrossAdvancesToTheCrossingInBothDirections) {
  // Reference: 0 until 100, then 50 until 300, then back to 0.
  StepProfile reference(0);
  reference.add(100, 300, 50);
  ScenarioProgram program;
  program.name = "sync";
  program.initial = 10;
  program.steps = {
      wait_to_cross(40),  // below 40 now -> first t with ref >= 40: t=100
      jump_to(5),
      wait_to_cross(40),  // at-or-above now -> first t with ref < 40: t=300
      jump_to(10),
  };
  const CompiledScenario compiled =
      compile_scenario(program, &reference);
  EXPECT_EQ(compiled.horizon, 300);
  EXPECT_EQ(compiled.curve.value_at(99), 10);
  EXPECT_EQ(compiled.curve.value_at(100), 5);
  EXPECT_EQ(compiled.curve.value_at(299), 5);
  EXPECT_EQ(compiled.curve.value_at(300), 10);
}

TEST(Scenario, WaitToCrossWithoutReferenceOrCrossingThrows) {
  ScenarioProgram program;
  program.name = "w";
  program.steps = {wait_to_cross(5)};
  EXPECT_THROW((void)compile_scenario(program), std::invalid_argument);
  const StepProfile flat(1);  // never reaches 5
  EXPECT_THROW((void)compile_scenario(program, &flat), std::invalid_argument);
}

TEST(Scenario, CompilationIsDeterministic) {
  for (const ScenarioProgram& program :
       {daily_availability_program(32), flash_crowd_program(32),
        daily_intensity_program(1440)}) {
    EXPECT_EQ(compile_scenario(program), compile_scenario(program));
  }
}

TEST(Scenario, DailyIntensityProgramMatchesGeneratorProfileBitForBit) {
  // The committed intensity program and the generator's built-in curve are
  // the same function -- the .scn file can drive daily_cycle_workload.
  for (const Time tpd : {24L, 100L, 1440L}) {
    EXPECT_EQ(compile_scenario(daily_intensity_program(tpd)).curve,
              daily_intensity_profile(tpd))
        << "ticks_per_day " << tpd;
  }
}

TEST(Scenario, MinProfileIsPointwiseMinimum) {
  StepProfile a(10);
  a.add(5, 15, -6);
  StepProfile b(8);
  b.add(10, 20, -3);
  const StepProfile lo = min_profile(a, b);
  for (Time t = 0; t <= 25; ++t)
    EXPECT_EQ(lo.value_at(t), std::min(a.value_at(t), b.value_at(t)))
        << "t=" << t;
}

// ---------------------------------------------------------------------------
// Skyline decomposition
// ---------------------------------------------------------------------------

TEST(Scenario, DecompositionRebuildsTheStaircaseExactly) {
  // Rises and partial falls force block splits in the skyline stack.
  StepProfile u(0);
  u.add(10, 50, 3);
  u.add(20, 40, 2);
  u.add(25, 30, 4);
  const std::vector<Reservation> rectangles = unavailability_to_reservations(u);
  StepProfile rebuilt(0);
  for (const Reservation& r : rectangles)
    rebuilt.add(r.start, r.start + r.p, r.q);
  EXPECT_EQ(rebuilt, u);
  // Dense ids, sorted by (start, p, q), named scn<i>.
  for (std::size_t i = 0; i < rectangles.size(); ++i) {
    EXPECT_EQ(rectangles[i].id, static_cast<ReservationId>(i));
    EXPECT_EQ(rectangles[i].name, "scn" + std::to_string(i));
    if (i > 0) {
      EXPECT_LE(rectangles[i - 1].start, rectangles[i].start);
    }
  }
}

TEST(Scenario, DecompositionRejectsNegativeAndUnboundedProfiles) {
  StepProfile dips(0);
  dips.add(5, 10, -1);
  EXPECT_THROW((void)unavailability_to_reservations(dips),
               std::invalid_argument);
  StepProfile open(0);
  open.add(5, kTimeInfinity, 2);  // never returns to 0
  EXPECT_THROW((void)unavailability_to_reservations(open),
               std::invalid_argument);
}

TEST(Scenario, ScenarioUnavailabilityIsMMinusCurveThenZero) {
  const CompiledScenario compiled = compile_scenario(maintenance_program(8));
  const StepProfile u = scenario_unavailability(compiled, 8);
  for (Time t = 0; t < compiled.horizon; ++t)
    ASSERT_EQ(u.value_at(t), 8 - compiled.curve.value_at(t)) << "t=" << t;
  EXPECT_EQ(u.value_at(compiled.horizon), 0);
  EXPECT_EQ(u.final_value(), 0);

  // Out-of-range curves are rejected: a 4-processor machine cannot host an
  // 8-processor availability program.
  EXPECT_THROW((void)scenario_unavailability(compiled, 4),
               std::invalid_argument);
}

TEST(Scenario, DemoDayFixtureCompilesToTheSingleDemoRectangle) {
  const ScenarioProgram program = load_scn(fixture_path("demo_day.scn"));
  const Instance instance =
      scenario_instance(12, {Job{0, 4, 18, 0, "cfd"}},
                        compile_scenario(program));
  ASSERT_EQ(instance.n_reservations(), 1u);
  const Reservation& demo = instance.reservations().front();
  EXPECT_EQ(demo.q, 8);
  EXPECT_EQ(demo.p, 10);
  EXPECT_EQ(demo.start, 20);
}

TEST(Scenario, ScenarioInstancesAreSchedulable) {
  const Instance instance = scenario_instance(
      16,
      {Job{0, 4, 18, 0, ""}, Job{1, 2, 30, 0, ""}, Job{2, 8, 6, 0, ""}},
      compile_scenario(daily_availability_program(16)));
  for (const char* name : {"fcfs", "conservative", "easy", "lsrc"}) {
    const Schedule schedule = make_scheduler(name)->schedule(instance).value();
    EXPECT_TRUE(schedule.validate(instance).ok) << name;
  }
}

// ---------------------------------------------------------------------------
// .scn format: round-trip, canonical form, error positions
// ---------------------------------------------------------------------------

TEST(ScnFormat, ParsesCommentsBlanksAndRepeat) {
  const ScenarioProgram program = parse_scn(
      "# availability for the demo\n"
      "\n"
      "scenario demo  # trailing comment\n"
      "initial 12\n"
      "repeat 2\n"
      "  soak_at 12 20\n"
      "  jump_to 4\n"
      "end\n");
  EXPECT_EQ(program.name, "demo");
  EXPECT_EQ(program.initial, 12);
  EXPECT_EQ(program.repeat, 2);
  ASSERT_EQ(program.steps.size(), 2u);
  EXPECT_EQ(program.steps[0], soak_at(12, 20));
  EXPECT_EQ(program.steps[1], jump_to(4));
}

TEST(ScnFormat, SerializeIsCanonicalAndRoundTrips) {
  const ScenarioProgram program = daily_availability_program(32);
  const std::string text = serialize_scn(program);
  EXPECT_EQ(parse_scn(text), program);
  // Canonical: serialize(parse(file)) reproduces the text byte for byte.
  EXPECT_EQ(serialize_scn(parse_scn(text)), text);
  // repeat 1 is omitted from the canonical form.
  EXPECT_EQ(serialize_scn(soak_program(8)).find("repeat"), std::string::npos);
}

struct ScnErrorCase {
  const char* text;
  std::size_t line;
  std::size_t column;
};

TEST(ScnFormat, ErrorsCarryTheOffendingPosition) {
  const ScnErrorCase cases[] = {
      // Bad integer: column of the literal.
      {"scenario s\ninitial x\nend\n", 2, 9},
      {"scenario s\n  soak_at 4 abc\nend\n", 2, 13},
      // Unknown directive at its own column (indented two spaces).
      {"scenario s\n  hover 3\nend\n", 2, 3},
      // Trailing token.
      {"scenario s\n  jump_to 3 9\nend\n", 2, 13},
      // Missing argument: column of the directive itself.
      {"scenario s\n  ramp_to 5\nend\n", 2, 3},
      // Duplicate / misplaced headers.
      {"scenario s\nscenario t\nend\n", 2, 1},
      {"scenario s\n  jump_to 1\ninitial 4\nend\n", 3, 1},
      // Content after end.
      {"scenario s\nend\njump_to 2\n", 3, 1},
      // Structural validation surfaces at the end line.
      {"scenario s\n  ramp_to 5 0\nend\n", 3, 1},
  };
  for (const ScnErrorCase& c : cases) {
    try {
      (void)parse_scn(c.text);
      FAIL() << "expected ScnParseError for: " << c.text;
    } catch (const ScnParseError& error) {
      EXPECT_EQ(error.line(), c.line) << c.text << " -> " << error.what();
      EXPECT_EQ(error.column(), c.column) << c.text << " -> " << error.what();
    }
  }
  // Missing pieces report past the last line.
  EXPECT_THROW((void)parse_scn("# nothing\n"), ScnParseError);
  EXPECT_THROW((void)parse_scn("scenario s\n  jump_to 1\n"), ScnParseError);
}

// ---------------------------------------------------------------------------
// Fixture pins: tests/data/*.scn are exactly the stock builders
// ---------------------------------------------------------------------------

TEST(ScnFormat, CommittedFixturesSerializeTheStockBuilders) {
  const ProcCount m = 32;
  const std::pair<const char*, ScenarioProgram> pins[] = {
      {"daily_cycle.scn", daily_availability_program(m)},
      {"maintenance.scn", maintenance_program(m)},
      {"brownout.scn", brownout_program(m)},
      {"flash_crowd.scn", flash_crowd_program(m)},
      {"ramp.scn", ramp_program(m)},
      {"soak.scn", soak_program(m)},
      {"daily_intensity.scn", daily_intensity_program(1440)},
  };
  for (const auto& [file, program] : pins) {
    EXPECT_EQ(read_file(fixture_path(file)), serialize_scn(program))
        << file << " drifted from its builder";
    EXPECT_EQ(load_scn(fixture_path(file)), program) << file;
  }
}

TEST(ScnFormat, DemoDayFixtureIsTheHandWrittenProgram) {
  ScenarioProgram expected;
  expected.name = "demo_day";
  expected.initial = 12;
  expected.steps = {soak_at(12, 20), jump_to(4), soak_at(4, 10), jump_to(12)};
  EXPECT_EQ(load_scn(fixture_path("demo_day.scn")), expected);
  // The committed file is already canonical.
  EXPECT_EQ(read_file(fixture_path("demo_day.scn")),
            serialize_scn(expected));
}

}  // namespace
}  // namespace resched
