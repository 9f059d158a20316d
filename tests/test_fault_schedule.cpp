// Declarative fault schedules: strict parsing (every malformed input is a
// diagnosed SpecError, never UB or silent truncation), CSV round-trips,
// seed-deterministic expansion, and the tentpole acceptance criteria — a
// schedule-driven faulted campaign replays bit-identically whether the
// schedule was loaded from disk or built programmatically, at any thread
// count, with survivability surfaced and the energy ledger still balancing.
// The malformed-input corpus runs under the ASan/UBSan CI job.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "core/error.hpp"
#include "env/environment.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "systems/catalog.hpp"
#include "systems/runner.hpp"

namespace msehsim::fault {
namespace {

namespace fs = std::filesystem;

const std::string kMagicLine = std::string(Schedule::kMagic) + "\n";
const std::string kHeaderLine = std::string(Schedule::kHeader) + "\n";

/// A minimal well-formed document holding the given data rows.
std::string doc(const std::string& rows) {
  return kMagicLine + kHeaderLine + rows;
}

/// The parse failure for @p text, which must throw SpecError.
std::string parse_error(const std::string& text) {
  try {
    Schedule::parse(text, "corpus.csv");
  } catch (const SpecError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected SpecError for: " << text;
  return {};
}

// ---------------------------------------------------------------------------
// Accepting valid documents
// ---------------------------------------------------------------------------

TEST(ScheduleParse, AcceptsCommentsBlanksAndDefaults) {
  const auto s = Schedule::parse(
      "# leading comment\n\n" + kMagicLine + "  # after magic\n" + kHeaderLine +
      "10,harvester_degrade,input:0,0.5,,,\n"
      "\n"
      "20,bus_stuck,bus,,30,2,600\n");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.entries()[0].when.value(), 10.0);
  EXPECT_EQ(s.entries()[0].fault, "harvester_degrade");
  EXPECT_EQ(s.entries()[0].count, 1u);          // empty cell -> default
  EXPECT_DOUBLE_EQ(s.entries()[0].spread.value(), 0.0);
  EXPECT_TRUE(std::isnan(s.entries()[0].b));    // optional cell stays unset
  EXPECT_EQ(s.entries()[1].count, 2u);
  EXPECT_DOUBLE_EQ(s.entries()[1].spread.value(), 600.0);
}

TEST(ScheduleParse, AcceptsCrlfLineEndings) {
  const auto s = Schedule::parse(kMagicLine + "\r\n" + kHeaderLine +
                                 "5,harvester_heal,input:*,,,,\r\n");
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.entries()[0].target, "input:*");
}

TEST(ScheduleParse, CsvRoundTripIsExact) {
  // Every cell parses to exactly the literal's double (no locale, no
  // rounding), and an empty optional cell stays unset.
  const auto s = Schedule::parse(
      doc("3600.5,sensor_drift,input:1,1.15,7200,1,\n"
          "7200,storage_leakage_spike,storage:2,8,1800,3,900\n"
          "10000,node_flash_wear,node,2,,1,\n"));
  ASSERT_EQ(s.size(), 3u);
  const auto& e = s.entries();
  EXPECT_EQ(e[0].when.value(), 3600.5);
  EXPECT_EQ(e[0].fault, "sensor_drift");
  EXPECT_EQ(e[0].target, "input:1");
  EXPECT_EQ(e[0].a, 1.15);
  EXPECT_EQ(e[0].b, 7200.0);
  EXPECT_EQ(e[0].count, 1u);
  EXPECT_EQ(e[0].spread.value(), 0.0);
  EXPECT_EQ(e[1].when.value(), 7200.0);
  EXPECT_EQ(e[1].fault, "storage_leakage_spike");
  EXPECT_EQ(e[1].target, "storage:2");
  EXPECT_EQ(e[1].a, 8.0);
  EXPECT_EQ(e[1].b, 1800.0);
  EXPECT_EQ(e[1].count, 3u);
  EXPECT_EQ(e[1].spread.value(), 900.0);
  EXPECT_EQ(e[2].when.value(), 10000.0);
  EXPECT_EQ(e[2].fault, "node_flash_wear");
  EXPECT_EQ(e[2].target, "node");
  EXPECT_EQ(e[2].a, 2.0);
  EXPECT_TRUE(std::isnan(e[2].b));
  EXPECT_EQ(e[2].count, 1u);
  EXPECT_EQ(e[2].spread.value(), 0.0);
}

TEST(ScheduleParse, LoadReadsAFile) {
  const fs::path path =
      fs::path(::testing::TempDir()) / "msehsim_sched_load.csv";
  {
    std::ofstream out(path);
    out << doc("60,converter_droop,input:0,0.8,,1,\n");
  }
  const auto s = Schedule::load(path.string());
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.entries()[0].fault, "converter_droop");
  fs::remove(path);
}

TEST(ScheduleParse, LoadMissingFileThrows) {
  EXPECT_THROW(Schedule::load("/nonexistent/nope.csv"), SpecError);
}

// ---------------------------------------------------------------------------
// Rejecting malformed documents — the fuzz corpus
// ---------------------------------------------------------------------------

TEST(ScheduleParse, EmptyDocumentRejected) {
  EXPECT_NE(parse_error("").find("empty schedule"), std::string::npos);
  EXPECT_NE(parse_error("# only comments\n\n").find("empty schedule"),
            std::string::npos);
}

TEST(ScheduleParse, MissingColumnHeaderRejected) {
  EXPECT_NE(parse_error(kMagicLine).find("truncated schedule"),
            std::string::npos);
}

TEST(ScheduleParse, WrongMagicRejected) {
  const auto msg = parse_error("msehsim-fault-schedule v2\n" + kHeaderLine);
  EXPECT_NE(msg.find("expected header"), std::string::npos);
}

TEST(ScheduleParse, CommaDecimalSeparatorGrowsColumnsAndIsRejected) {
  // A locale-mangled "0,5" splits into extra cells; the strict column count
  // catches it instead of silently truncating the row.
  const auto msg =
      parse_error(doc("10,harvester_degrade,input:0,0,5,,1,\n"));
  EXPECT_NE(msg.find("expected 7 columns"), std::string::npos);
}

TEST(ScheduleParse, TruncatedRowRejected) {
  EXPECT_NE(parse_error(doc("10,harvester_degrade,input:0,0.5\n"))
                .find("expected 7 columns"),
            std::string::npos);
}

TEST(ScheduleParse, GarbledNumbersRejected) {
  EXPECT_NE(parse_error(doc("abc,harvester_heal,input:0,,,,\n"))
                .find("unparseable time_s"),
            std::string::npos);
  EXPECT_NE(parse_error(doc("10,harvester_degrade,input:0,0.5e,,1,\n"))
                .find("unparseable 'a'"),
            std::string::npos);
  EXPECT_NE(parse_error(doc("10,harvester_heal,input:0,,,1.5,\n"))
                .find("unparseable count"),
            std::string::npos);
  EXPECT_NE(parse_error(doc("10,harvester_heal,input:0,,,1,12h\n"))
                .find("unparseable spread_s"),
            std::string::npos);
}

TEST(ScheduleParse, UnknownFaultKeywordRejected) {
  EXPECT_NE(parse_error(doc("10,harvester_explode,input:0,,,,\n"))
                .find("unknown fault"),
            std::string::npos);
}

TEST(ScheduleParse, TargetFormRejections) {
  // Wrong target class for the keyword.
  EXPECT_FALSE(
      parse_error(doc("10,harvester_degrade,storage:0,0.5,,,\n")).empty());
  // Malformed index.
  EXPECT_FALSE(
      parse_error(doc("10,harvester_degrade,input:abc,0.5,,,\n")).empty());
  EXPECT_FALSE(parse_error(doc("10,bus_stuck,bus:0,,30,,\n")).empty());
  EXPECT_FALSE(parse_error(doc("10,node_flash_wear,thenode,2,,,\n")).empty());
}

TEST(ScheduleParse, CellContractRejections) {
  // Forbidden cell present.
  EXPECT_FALSE(
      parse_error(doc("10,harvester_stuck_short,input:0,0.5,,,\n")).empty());
  // Required cell missing.
  EXPECT_FALSE(
      parse_error(doc("10,harvester_degrade,input:0,,,,\n")).empty());
  EXPECT_FALSE(parse_error(doc("10,bus_stuck,bus,,,,\n")).empty());
}

TEST(ScheduleParse, RangeRejections) {
  EXPECT_FALSE(
      parse_error(doc("10,harvester_degrade,input:0,1.5,,,\n")).empty());
  EXPECT_FALSE(parse_error(doc("10,converter_droop,input:0,0,,,\n")).empty());
  EXPECT_FALSE(
      parse_error(doc("10,storage_capacity_fade,storage:0,1,,,\n")).empty());
  EXPECT_FALSE(parse_error(doc("10,bus_nak_burst,bus,2.5,,,\n")).empty());
  EXPECT_FALSE(parse_error(doc("10,node_flash_wear,node,0.5,,,\n")).empty());
  EXPECT_FALSE(parse_error(doc("10,sensor_drift,input:0,0,,,\n")).empty());
  EXPECT_FALSE(parse_error(doc("-1,harvester_heal,input:0,,,,\n")).empty());
  EXPECT_FALSE(parse_error(doc("10,harvester_heal,input:0,,,0,\n")).empty());
  EXPECT_FALSE(
      parse_error(doc("10,harvester_heal,input:0,,,1,-5\n")).empty());
}

TEST(ScheduleParse, DiagnosticsNameOriginAndLine) {
  // Row sits on line 4 of the document (magic, header, comment, row).
  const auto msg = parse_error(kMagicLine + kHeaderLine + "# note\n" +
                               "10,harvester_degrade,input:0,2,,,\n");
  EXPECT_NE(msg.find("corpus.csv line 4"), std::string::npos);
}

TEST(ScheduleParse, AddValidatesLikeParse) {
  Schedule s;
  ScheduleEntry bad;
  bad.when = Seconds{10.0};
  bad.fault = "harvester_degrade";
  bad.target = "input:0";
  bad.a = 2.0;  // out of range
  EXPECT_THROW(s.add(bad), SpecError);
  bad.a = 0.5;
  s.add(bad);
  EXPECT_EQ(s.size(), 1u);
}

// ---------------------------------------------------------------------------
// Compiling against a platform's injectable surface
// ---------------------------------------------------------------------------

TEST(ScheduleBuild, TargetBeyondPlatformSurfaceThrows) {
  const auto s = Schedule::parse(doc("10,harvester_degrade,input:7,0.5,,,\n"));
  auto platform = systems::build_system_a(1);
  try {
    auto injector = s.build_injector(1, platform->fault_targets());
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("input:7"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("3 input chains"), std::string::npos);
  }
}

TEST(ScheduleBuild, MissingBusOrNodeThrows) {
  ScheduleTargets empty;
  const auto bus_sched = Schedule::parse(doc("10,bus_stuck,bus,,30,,\n"));
  EXPECT_THROW(bus_sched.build_injector(1, empty), SpecError);
  const auto node_sched =
      Schedule::parse(doc("10,node_flash_wear,node,2,,,\n"));
  EXPECT_THROW(node_sched.build_injector(1, empty), SpecError);
  const auto store_sched =
      Schedule::parse(doc("10,storage_capacity_fade,storage:0,0.5,,,\n"));
  EXPECT_THROW(store_sched.build_injector(1, empty), SpecError);
}

// ---------------------------------------------------------------------------
// Determinism + survivability acceptance
// ---------------------------------------------------------------------------

/// The schedule every acceptance run below replays: deterministic and
/// stochastic rows across all four target classes.
Schedule acceptance_schedule() {
  return Schedule::parse(
      doc("600,harvester_degrade,input:*,0.4,,1,\n"
          "1200,sensor_drift,input:0,1.2,1800,1,\n"
          "1800,bus_nak_burst,bus,3,,2,1200\n"
          "2400,storage_leakage_spike,storage:0,6,900,1,\n"
          "3000,node_radio_pa_degrade,node,1.3,,1,\n"
          "3600,harvester_stuck_short,input:1,,,1,\n"));
}

std::string run_with(const Schedule& schedule, std::uint64_t seed) {
  auto platform = systems::build_system_a(seed);
  env::Environment environment = env::Environment::outdoor(seed);
  auto injector = schedule.build_injector(seed, platform->fault_targets());
  systems::RunOptions options;
  options.dt = Seconds{5.0};
  const auto result = systems::run_platform(
      *platform, environment, Seconds{2.0 * 3600.0}, options, injector.get());
  return systems::to_string(result);
}

TEST(ScheduleReplay, FileAndProgrammaticConstructionAreBitIdentical) {
  const Schedule from_text = acceptance_schedule();
  // Rebuild the same schedule through add(): the expansion must depend only
  // on (entries, seed), not on how the schedule object came to be.
  Schedule programmatic;
  for (const auto& entry : from_text.entries()) programmatic.add(entry);
  const std::string a = run_with(from_text, 7);
  const std::string b = run_with(programmatic, 7);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("faults.injected.environment=1"), std::string::npos);
  EXPECT_NE(a.find("faults.injected.node=1"), std::string::npos);
}

TEST(ScheduleReplay, SeedChangesStochasticExpansion) {
  const Schedule s = acceptance_schedule();
  EXPECT_EQ(run_with(s, 7), run_with(s, 7));
  EXPECT_NE(run_with(s, 7), run_with(s, 8));
}

TEST(ScheduleReplay, AppendingARowPreservesEarlierDraws) {
  // Per-entry RNG streams: appending a row must not perturb the stochastic
  // expansion of the rows already there. With a shared stream the appended
  // row would shift every later draw and the common prefix would diverge.
  Schedule base = acceptance_schedule();
  Schedule extended = acceptance_schedule();
  ScheduleEntry extra;
  extra.when = Seconds{7000.0};
  extra.fault = "harvester_heal";
  extra.target = "input:1";
  extended.add(extra);

  auto p1 = systems::build_system_a(7);
  auto p2 = systems::build_system_a(7);
  auto i1 = base.build_injector(7, p1->fault_targets());
  auto i2 = extended.build_injector(7, p2->fault_targets());
  // Both injectors saw identical draws for the shared prefix; the runs only
  // diverge because of the appended heal itself, which fires at 7000 s —
  // so identical trajectories up to then.
  env::Environment e1 = env::Environment::outdoor(7);
  env::Environment e2 = env::Environment::outdoor(7);
  systems::RunOptions o1, o2;
  o1.dt = o2.dt = Seconds{5.0};
  const auto r1 = systems::run_platform(*p1, e1, Seconds{6000.0}, o1, i1.get());
  const auto r2 = systems::run_platform(*p2, e2, Seconds{6000.0}, o2, i2.get());
  EXPECT_EQ(systems::to_string(r1), systems::to_string(r2));
}

TEST(ScheduleReplay, CampaignIsThreadCountInvariant) {
  auto schedule =
      std::make_shared<const Schedule>(acceptance_schedule());
  const auto make_spec = [&](unsigned threads) {
    campaign::CampaignSpec spec;
    spec.platforms.push_back(
        {"system-a", [](std::uint64_t s) { return systems::build_system_a(s); }});
    campaign::Scenario scenario;
    scenario.name = "outdoor-2h";
    scenario.environment = [](std::uint64_t s) {
      return std::make_unique<env::Environment>(env::Environment::outdoor(s));
    };
    scenario.duration = Seconds{2.0 * 3600.0};
    scenario.options.dt = Seconds{5.0};
    scenario.injector = campaign::schedule_injector(schedule);
    spec.scenarios.push_back(std::move(scenario));
    spec.seeds = {1, 2, 3};
    spec.threads = threads;
    return spec;
  };
  campaign::Campaign serial(make_spec(1));
  serial.run();
  campaign::Campaign pooled(make_spec(4));
  pooled.run();
  EXPECT_EQ(campaign::results_csv(serial), campaign::results_csv(pooled));
  EXPECT_EQ(campaign::results_json(serial), campaign::results_json(pooled));
}

TEST(ScheduleReplay, SurvivabilitySurfacesAndLedgerBalances) {
  auto platform = systems::build_system_a(7);
  env::Environment environment = env::Environment::outdoor(7);
  const Schedule schedule = acceptance_schedule();
  auto injector = schedule.build_injector(7, platform->fault_targets());
  systems::RunOptions options;
  options.dt = Seconds{5.0};
  const auto result = systems::run_platform(
      *platform, environment, Seconds{4.0 * 3600.0}, options, injector.get());
  const auto& s = result.survivability;
  EXPECT_GE(s.energy_neutral_fraction, 0.0);
  EXPECT_LE(s.energy_neutral_fraction, 1.0);
  EXPECT_GE(s.unserved_energy_fraction, 0.0);
  EXPECT_LE(s.unserved_energy_fraction, 1.0);
  // Conservation holds through every injected fault.
  EXPECT_LT(std::abs(result.ledger.relative_residual()), 1e-9);
  // Every survivability field reaches the canonical text surface.
  const std::string text = systems::to_string(result);
  EXPECT_NE(text.find("survivability.time_to_first_unserved_s="),
            std::string::npos);
  EXPECT_NE(text.find("survivability.unserved_energy_fraction="),
            std::string::npos);
  EXPECT_NE(text.find("survivability.energy_neutral_fraction="),
            std::string::npos);
  EXPECT_NE(text.find("survivability.backup_stages="), std::string::npos);
  EXPECT_NE(text.find("survivability.stage0.residency_s="), std::string::npos);
  EXPECT_NE(text.find("survivability.stage0.switch_ins="), std::string::npos);
}

}  // namespace
}  // namespace msehsim::fault
