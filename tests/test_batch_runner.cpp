// Batched lane kernel (systems::BatchRunner) correctness gate.
//
// The contract is byte-identity: a lane's RunResult must not depend on the
// lanes sharing its block, the block width, the campaign's thread count, or
// whether its ambient timeline is a compiled trace or live synthesis. So a
// campaign at any thread count, and a BatchRunner fed its lanes in any
// block composition, must report exactly the bytes of each job run alone:
// run_platform over a live environment (tests/live_grid.hpp), or a
// one-lane BatchRunner over the same trace. The grids below cover the
// divergence machinery the kernel must keep per lane — fault-schedule
// onsets, backup-chain failovers, query traffic — on the survey's
// reference platforms (Systems A and B), plus the energy-ledger leak
// detector that rides on the campaign aggregation. Named tests at the end
// pin the one engine's event timing and query stream; the physics is
// checked against closed forms in test_platform.cpp (PlatformOracle.*).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/error.hpp"
#include "core/random.hpp"
#include "env/compiled_trace.hpp"
#include "env/environment.hpp"
#include "fault/faulty_harvester.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "harvest/transducers.hpp"
#include "manager/backup_chain.hpp"
#include "manager/monitor.hpp"
#include "node/sensor_node.hpp"
#include "power/chain.hpp"
#include "power/converter.hpp"
#include "power/mppt.hpp"
#include "storage/battery.hpp"
#include "storage/fuel_cell.hpp"
#include "storage/supercapacitor.hpp"
#include "storage/switched.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "systems/batch_runner.hpp"
#include "systems/catalog.hpp"
#include "systems/platform.hpp"
#include "systems/runner.hpp"
#include "counting_new.hpp"
#include "live_grid.hpp"
#include "schedule_rows.hpp"

namespace msehsim::campaign {
namespace {

/// A campaign injector factory built from inline schedule rows.
InjectorFactory rows_injector(std::string_view rows) {
  return schedule_injector(
      std::make_shared<const fault::Schedule>(reference::schedule_rows(rows)));
}

EnvironmentFactory outdoor_factory() {
  return [](std::uint64_t seed) {
    return std::make_unique<env::Environment>(env::Environment::outdoor(seed));
  };
}

std::vector<std::string> reports(Campaign& c) {
  c.run();
  std::vector<std::string> out;
  for (const auto& job : c.results()) out.push_back(to_string(job.result));
  return out;
}

/// Runs @p base on 1 and on 3 threads and asserts each run reproduces every
/// job run alone over live synthesis byte for byte. The campaign batches
/// the platform variants of each (scenario, seed) into blocks of up to 8
/// lanes over one compiled trace.
void expect_matches_one_lane_runs(const CampaignSpec& base) {
  const auto alone = reference::live_grid_reports(base);
  ASSERT_FALSE(alone.empty());
  for (const unsigned threads : {1u, 3u}) {
    CampaignSpec spec = base;
    spec.threads = threads;
    Campaign c(spec);
    EXPECT_EQ(alone, reports(c)) << "diverged at threads=" << threads;
  }
}

/// Systems A and B against the same outdoor scenario: the two reference
/// platforms of the survey, with query traffic driving the per-lane RNG.
CampaignSpec systems_grid() {
  CampaignSpec spec;
  spec.platforms.push_back(
      {"system-a", [](std::uint64_t s) { return systems::build_system_a(s); }});
  spec.platforms.push_back(
      {"system-b", [](std::uint64_t s) { return systems::build_system_b(s); }});
  Scenario sc;
  sc.name = "outdoor-half-hour";
  sc.environment = outdoor_factory();
  sc.duration = Seconds{1800.0};
  sc.options.dt = Seconds{5.0};
  sc.options.mean_query_interval = Seconds{120.0};
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {3, 17, 29};
  return spec;
}

TEST(BatchRunner, ByteIdenticalAcrossLaneWidthsOnCleanSystemsAB) {
  expect_matches_one_lane_runs(systems_grid());
}

TEST(BatchRunner, ByteIdenticalUnderFaultSchedules) {
  CampaignSpec spec;
  spec.platforms.push_back(
      {"system-a", [](std::uint64_t s) { return systems::build_system_a(s); }});
  Scenario sc;
  sc.name = "faulted";
  sc.environment = outdoor_factory();
  sc.duration = Seconds{7200.0};
  sc.options.dt = Seconds{5.0};
  sc.injector = rows_injector("600,harvester_intermittent,input:0,0.5,,,\n"
                              "3600,harvester_heal,input:0,,,,\n"
                              "5400,harvester_stuck_short,input:1,,,,\n");
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {5, 9, 13};
  expect_matches_one_lane_runs(spec);
}

/// System A with its fuel cell behind a prioritized backup chain, every
/// ambient source killed at t=1h — the chain must engage (divergent per-lane
/// control flow) and the campaign must report each job's one-lane bytes.
CampaignSpec backup_chain_grid() {
  CampaignSpec spec;
  spec.platforms.push_back({"system-a-chain", [](std::uint64_t s) {
                              auto a = systems::build_system_a(s);
                              manager::BackupChain::Params bp;
                              manager::BackupStageParams fuel;
                              fuel.kind = manager::BackupStageKind::kFuelCell;
                              fuel.storage_slot = 2;
                              fuel.min_outage = Seconds{600.0};
                              bp.stages.push_back(fuel);
                              manager::BackupStageParams shed;
                              shed.kind = manager::BackupStageKind::kLoadShed;
                              shed.min_outage = Seconds{3600.0};
                              bp.stages.push_back(shed);
                              a->set_backup_chain(bp);
                              return a;
                            }});
  Scenario sc;
  sc.name = "ambient-blackout";
  sc.environment = outdoor_factory();
  sc.duration = Seconds{21600.0};
  sc.options.dt = Seconds{5.0};
  sc.injector = rows_injector("3600,harvester_stuck_short,input:*,,,,\n");
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {11, 23};
  return spec;
}

TEST(BatchRunner, ByteIdenticalThroughBackupChainFailover) {
  CampaignSpec base = backup_chain_grid();
  // The scenario must actually exercise the failover machinery, or this
  // gate proves nothing.
  {
    Campaign c(base);
    c.run();
    for (const auto& job : c.results())
      EXPECT_GE(job.result.faults.failovers, 1u);
  }
  expect_matches_one_lane_runs(base);
}

TEST(BatchRunner, LaneWidthOneRunsOneLaneBlocks) {
  CampaignSpec spec = systems_grid();  // 2 platforms x 1 scenario x 3 seeds
  Campaign batched(spec);
  const auto batched_reports = reports(batched);
  EXPECT_EQ(batched.lane_blocks(), 3u) << "one block per (scenario, seed)";
  EXPECT_EQ(reference::live_grid_reports(spec), batched_reports);

  // One platform variant: every block holds one lane, and System A's jobs
  // report the bytes they reported batched with System B.
  spec.platforms.resize(1);
  Campaign single(spec);
  const auto single_reports = reports(single);
  EXPECT_EQ(single.lane_blocks(), 3u) << "one one-lane block per job";
  ASSERT_EQ(single_reports.size(), 3u);
  EXPECT_EQ(single_reports,
            std::vector<std::string>(batched_reports.begin(),
                                     batched_reports.begin() + 3));
}

/// A probe platform whose supercapacitor leaks heavily: as harvest charges
/// the (initially empty) capacitor, the v^2/R leakage loss accelerates, so
/// storage loss grows superlinearly in duration — exactly the signature the
/// leak detector flags. A single EDLC, no node.
std::unique_ptr<systems::Platform> leaky_platform() {
  systems::PlatformSpec spec;
  spec.name = "leaky";
  auto p = std::make_unique<systems::Platform>(spec);
  p->add_input(std::make_unique<power::InputChain>(
      std::make_unique<harvest::PvPanel>("pv", harvest::PvPanel::Params{}),
      std::make_unique<power::OracleMppt>(),
      power::Converter::smart_buck_boost("fe"), Seconds{5.0}));
  storage::Supercapacitor::Params sp;
  sp.main_capacitance = Farads{100.0};
  sp.slow_capacitance = Farads{0.0};
  sp.initial_voltage = Volts{0.05};
  sp.leakage_resistance = Ohms{1000.0};  // ~40x leakier than a healthy EDLC
  p->add_storage(std::make_unique<storage::Supercapacitor>("buf", sp), 0);
  return p;
}

/// Same platform held at a steady operating point: storage loss stays
/// near-linear, so the detector must NOT flag it.
std::unique_ptr<systems::Platform> steady_platform() {
  systems::PlatformSpec spec;
  spec.name = "steady";
  auto p = std::make_unique<systems::Platform>(spec);
  p->add_input(std::make_unique<power::InputChain>(
      std::make_unique<harvest::PvPanel>("pv", harvest::PvPanel::Params{}),
      std::make_unique<power::OracleMppt>(),
      power::Converter::smart_buck_boost("fe"), Seconds{5.0}));
  storage::Supercapacitor::Params sp;
  sp.main_capacitance = Farads{10.0};
  sp.slow_capacitance = Farads{0.0};
  sp.initial_voltage = Volts{4.5};  // near full: loss rate barely moves
  p->add_storage(std::make_unique<storage::Supercapacitor>("buf", sp), 0);
  return p;
}

// ---------------------------------------------------------------------------
// Storage mixes against one-lane runs
// ---------------------------------------------------------------------------

/// A StorageDevice that reports the fuel-cell kind without being a
/// storage::FuelCell: an inert 3.6 V cell that never moves energy.
/// Platform::step's refill pass must skip it (the kind() prefilter passes,
/// the dynamic_cast does not).
class FuelCellLookalike final : public storage::StorageDevice {
 public:
  [[nodiscard]] std::string_view name() const override { return "lookalike"; }
  [[nodiscard]] storage::StorageKind kind() const override {
    return storage::StorageKind::kFuelCell;
  }
  [[nodiscard]] bool rechargeable() const override { return false; }
  [[nodiscard]] Volts voltage() const override { return Volts{3.6}; }
  [[nodiscard]] Joules stored_energy() const override { return Joules{0.0}; }
  [[nodiscard]] Joules capacity() const override { return Joules{1.0}; }
  Watts charge(Watts, Seconds) override { return Watts{0.0}; }
  Watts discharge(Watts, Seconds) override { return Watts{0.0}; }
  void apply_leakage(Seconds) override {}
  [[nodiscard]] Watts max_discharge_power() const override {
    return Watts{0.0};
  }
};

/// A PV front end over @p stores, in slot order with priorities 0, 1, ...
std::unique_ptr<systems::Platform> pv_platform(
    std::vector<std::unique_ptr<storage::StorageDevice>> stores) {
  systems::PlatformSpec spec;
  spec.name = "pv-probe";
  auto p = std::make_unique<systems::Platform>(spec);
  p->add_input(std::make_unique<power::InputChain>(
      std::make_unique<harvest::PvPanel>("pv", harvest::PvPanel::Params{}),
      std::make_unique<power::OracleMppt>(),
      power::Converter::smart_buck_boost("fe"), Seconds{5.0}));
  int priority = 0;
  for (auto& d : stores) p->add_storage(std::move(d), priority++);
  return p;
}

std::unique_ptr<storage::StorageDevice> plain_supercap() {
  storage::Supercapacitor::Params sp;
  sp.main_capacitance = Farads{10.0};
  sp.initial_voltage = Volts{2.0};
  return std::make_unique<storage::Supercapacitor>("edlc", sp);
}

/// @p platform run alone: a one-lane BatchRunner over @p trace.
systems::RunResult one_lane_run(
    const std::shared_ptr<const env::CompiledTrace>& trace, Seconds duration,
    const systems::RunOptions& options, systems::Platform& platform,
    fault::FaultInjector* injector = nullptr) {
  systems::BatchRunner runner(trace, duration, options);
  runner.add_lane(platform, injector);
  return std::move(runner.run().front());
}

/// Runs every lane of @p lanes in one BatchRunner over the outdoor trace of
/// @p seed, and each lane again alone by run_platform over live synthesis
/// of the same environment, and asserts every result byte-equal.
void expect_lanes_match_one_lane_runs(
    const std::vector<std::unique_ptr<systems::Platform> (*)()>& lanes,
    std::uint64_t seed, Seconds duration, const systems::RunOptions& options,
    const std::string& label) {
  auto model = env::Environment::outdoor(seed);
  const auto trace = env::CompiledTrace::compile(model, options.dt, duration);
  std::vector<std::unique_ptr<systems::Platform>> platforms;
  systems::BatchRunner runner(trace, duration, options);
  for (const auto build : lanes) {
    platforms.push_back(build());
    runner.add_lane(*platforms.back());
  }
  const auto batched = runner.run();
  EXPECT_EQ(batched.size(), lanes.size()) << label;
  for (std::size_t l = 0; l < lanes.size() && l < batched.size(); ++l) {
    auto p = lanes[l]();
    auto environment = env::Environment::outdoor(seed);
    EXPECT_EQ(to_string(systems::run_platform(*p, environment, duration,
                                              options)),
              to_string(batched[l]))
        << label << ", lane " << l;
  }
}

/// Drives BatchRunner directly (no campaign wrapper): System B (supercap +
/// NiMH) and System A (fuel-cell slot) in one block, with query traffic,
/// must reproduce each lane's one-lane run byte for byte.
TEST(StorageMix, SystemsAAndBMatchTheReferenceHarness) {
  systems::RunOptions options;
  options.dt = Seconds{5.0};
  options.mean_query_interval = Seconds{120.0};
  expect_lanes_match_one_lane_runs(
      {[] { return systems::build_system_a(7); },
       [] { return systems::build_system_b(7); }},
      7, Seconds{1800.0}, options, "systems A, B");
}

/// One storage shape per row — a constant-capacitance supercap, a battery,
/// a sloped supercap, a switched reserve, a fuel cell, and a device that
/// only claims the fuel-cell kind. Every lane matches its one-lane live run
/// alone and batched with the others.
TEST(StorageMix, EveryStorageShapeMatchesTheReference) {
  using Build = std::unique_ptr<systems::Platform> (*)();
  struct Row {
    const char* name;
    Build build;
  };
  const std::vector<Row> rows = {
      {"plain supercap",
       [] {
         std::vector<std::unique_ptr<storage::StorageDevice>> s;
         s.push_back(plain_supercap());
         return pv_platform(std::move(s));
       }},
      {"battery",
       [] {
         std::vector<std::unique_ptr<storage::StorageDevice>> s;
         s.push_back(std::make_unique<storage::Battery>(
             storage::Battery::nimh("cell", AmpHours{0.05})));
         return pv_platform(std::move(s));
       }},
      {"sloped supercap",
       [] {
         storage::Supercapacitor::Params sp;
         sp.main_capacitance = Farads{10.0};
         sp.initial_voltage = Volts{2.0};
         sp.voltage_capacitance_slope = 0.5;
         std::vector<std::unique_ptr<storage::StorageDevice>> s;
         s.push_back(std::make_unique<storage::Supercapacitor>("sloped", sp));
         return pv_platform(std::move(s));
       }},
      {"switched reserve",
       [] {
         std::vector<std::unique_ptr<storage::StorageDevice>> s;
         s.push_back(plain_supercap());
         s.push_back(std::make_unique<storage::SwitchedStorage>(
             std::make_unique<storage::Battery>(
                 storage::Battery::li_ion("reserve", AmpHours{0.1}))));
         return pv_platform(std::move(s));
       }},
      {"fuel cell",
       [] {
         std::vector<std::unique_ptr<storage::StorageDevice>> s;
         auto cell = std::make_unique<storage::FuelCell>(
             "fc", storage::FuelCell::Params{});
         cell->set_enabled(true);  // the refill pass runs every step
         s.push_back(plain_supercap());
         s.push_back(std::move(cell));
         return pv_platform(std::move(s));
       }},
      {"fuel-cell-kind double",
       [] {
         std::vector<std::unique_ptr<storage::StorageDevice>> s;
         s.push_back(plain_supercap());
         s.push_back(std::make_unique<FuelCellLookalike>());
         return pv_platform(std::move(s));
       }},
  };
  systems::RunOptions options;
  options.dt = Seconds{10.0};
  const Seconds duration{43200.0};  // midnight to noon: dark, then sun

  std::vector<Build> all;
  for (const Row& row : rows) {
    expect_lanes_match_one_lane_runs({row.build}, 5, duration, options,
                                     row.name);
    all.push_back(row.build);
  }
  expect_lanes_match_one_lane_runs(all, 5, duration, options, "all rows");
}

/// A Harvester subclass the catalog does not know: a linear light cell
/// whose MPP comes from the base class's golden-section search. A lane
/// built on it must match its one-lane live run byte for byte.
class LinearLightCell final : public harvest::Harvester {
 public:
  [[nodiscard]] std::string_view name() const override { return "linear"; }
  [[nodiscard]] harvest::HarvesterKind kind() const override {
    return harvest::HarvesterKind::kPhotovoltaic;
  }
  [[nodiscard]] Amps current_at(Volts v) const override {
    if (v.value() < 0.0 || v.value() >= voc_) return Amps{0.0};
    return Amps{isc_ * (1.0 - v.value() / voc_)};
  }
  [[nodiscard]] Volts open_circuit_voltage() const override {
    return Volts{voc_};
  }

 protected:
  void do_set_conditions(const env::AmbientConditions& c) override {
    const double sun = std::min(c.solar_irradiance.value() / 1000.0, 1.0);
    voc_ = 6.0 * sun;
    isc_ = 0.1 * sun;
  }

 private:
  double voc_{0.0};
  double isc_{0.0};
};

std::unique_ptr<systems::Platform> linear_cell_platform() {
  systems::PlatformSpec spec;
  spec.name = "linear-cell";
  auto p = std::make_unique<systems::Platform>(spec);
  p->add_input(std::make_unique<power::InputChain>(
      std::make_unique<LinearLightCell>(),
      std::make_unique<power::PerturbObserve>(),
      power::Converter::smart_buck_boost("fe"), Seconds{10.0}));
  p->add_storage(plain_supercap(), 0);
  return p;
}

TEST(StorageMix, UncataloguedHarvesterMatchesTheReference) {
  using Build = std::unique_ptr<systems::Platform> (*)();
  const Build cell = linear_cell_platform;
  const Build b = [] { return systems::build_system_b(7); };
  systems::RunOptions options;
  options.dt = Seconds{10.0};
  options.mean_query_interval = Seconds{120.0};
  const Seconds duration{43200.0};

  // Width 1: each lane alone.
  for (const Build build : {cell, b})
    expect_lanes_match_one_lane_runs({build}, 7, duration, options, "width 1");
  // Width 8: the double's lanes interleaved with System B's.
  const std::vector<Build> block = {cell, b, cell, b, cell, b, cell, b};
  expect_lanes_match_one_lane_runs(block, 7, duration, options, "width 8");
  // The double actually harvested: the lane is not a trivially dark one.
  auto p = linear_cell_platform();
  auto environment = env::Environment::outdoor(7);
  systems::run_platform(*p, environment, duration, options);
  EXPECT_GT(p->input(0).delivered_energy().value(), 0.0);
}

/// run_platform is a one-lane BatchRunner over a live environment: with a
/// fault injector, query traffic and the timeline all on, its result and
/// timeline must equal a one-lane run over the compiled trace of the same
/// environment, for System A and System B.
TEST(RunPlatform, OneLaneRunMatchesTheReferenceHarness) {
  const Seconds duration{7200.0};
  systems::RunOptions options;
  options.dt = Seconds{5.0};
  options.mean_query_interval = Seconds{120.0};
  options.timeline_dt = Seconds{60.0};
  auto model = env::Environment::outdoor(9);
  const auto trace = env::CompiledTrace::compile(model, options.dt, duration);
  using Build = std::unique_ptr<systems::Platform> (*)(std::uint64_t);
  for (const Build build : {Build{systems::build_system_a},
                            Build{systems::build_system_b}}) {
    const auto run = [&](bool live) {
      auto p = build(9);
      auto inj = reference::schedule_rows(
                     "600,harvester_intermittent,input:0,0.5,,,\n"
                     "3000,harvester_heal,input:0,,,,\n"
                     "1800,storage_leakage_spike,storage:0,25,1200,,\n")
                     .build_injector(9, p->fault_targets());
      if (!live) return one_lane_run(trace, duration, options, *p, inj.get());
      auto environment = env::Environment::outdoor(9);
      return systems::run_platform(*p, environment, duration, options,
                                   inj.get());
    };
    const auto got = run(true);
    const auto want = run(false);
    EXPECT_EQ(to_string(got), to_string(want));
    EXPECT_GE(got.faults.injected.harvester, 1u);
    ASSERT_NE(got.timeline, nullptr);
    ASSERT_NE(want.timeline, nullptr);
    EXPECT_EQ(got.timeline->sample_count(), 120u);  // 7200 s / 60 s
    EXPECT_EQ(got.timeline->time(), want.timeline->time());
    ASSERT_EQ(got.timeline->columns(), want.timeline->columns());
    for (std::size_t col = 0; col < got.timeline->column_count(); ++col) {
      EXPECT_EQ(got.timeline->column(col), want.timeline->column(col))
          << got.timeline->columns()[col];
    }
    const auto bus_col = got.timeline->find_column("bus_voltage_v");
    ASSERT_NE(bus_col, obs::Timeline::npos);
    const auto& bus_v = got.timeline->column(bus_col);
    EXPECT_GT(*std::max_element(bus_v.begin(), bus_v.end()), 0.0);
  }
}

/// Fault schedule aimed at System B's supercap + battery bank: onsets and
/// heals/expiries mutate per-lane coefficients (leakage-spike multiplier,
/// droop factor, intermittent gating), and the thermal shutdown cuts the
/// chain until the converter recovers. Bytes must match one-lane runs.
TEST(BatchRunner, ByteIdenticalUnderFaultsOnSupercapBatteryLanes) {
  CampaignSpec spec;
  spec.platforms.push_back(
      {"system-b", [](std::uint64_t s) { return systems::build_system_b(s); }});
  Scenario sc;
  sc.name = "faulted-b";
  sc.environment = outdoor_factory();
  sc.duration = Seconds{7200.0};
  sc.options.dt = Seconds{5.0};
  sc.options.mean_query_interval = Seconds{120.0};
  sc.injector =
      rows_injector("600,harvester_intermittent,input:0,0.4,,,\n"
                    "2400,harvester_heal,input:0,,,,\n"
                    "1800,storage_leakage_spike,storage:0,25,1200,,\n"
                    "3000,converter_droop,input:0,0.85,,,\n"
                    "4200,converter_thermal_shutdown,input:0,,600,,\n");
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {5, 9, 13};
  expect_matches_one_lane_runs(spec);
}

/// A PV front end over a NiMH cell.
std::unique_ptr<systems::Platform> battery_buffered_platform() {
  systems::PlatformSpec spec;
  spec.name = "battery-buffered";
  auto p = std::make_unique<systems::Platform>(spec);
  p->add_input(std::make_unique<power::InputChain>(
      std::make_unique<harvest::PvPanel>("pv", harvest::PvPanel::Params{}),
      std::make_unique<power::OracleMppt>(),
      power::Converter::smart_buck_boost("fe"), Seconds{5.0}));
  p->add_storage(std::make_unique<storage::Battery>(
                     storage::Battery::nimh("cell", AmpHours{0.05})),
                 0);
  return p;
}

/// Same front end over a lithium-ion capacitor: a two-branch supercap whose
/// coefficients (C, Rleak, redistribution tau) differ from the EDLC
/// variants sharing its block.
std::unique_ptr<systems::Platform> lic_platform() {
  systems::PlatformSpec spec;
  spec.name = "lic";
  auto p = std::make_unique<systems::Platform>(spec);
  p->add_input(std::make_unique<power::InputChain>(
      std::make_unique<harvest::PvPanel>("pv", harvest::PvPanel::Params{}),
      std::make_unique<power::OracleMppt>(),
      power::Converter::smart_buck_boost("fe"), Seconds{5.0}));
  p->add_storage(std::make_unique<storage::Supercapacitor>(
                     storage::Supercapacitor::lithium_ion_capacitor(
                         "lic", Farads{25.0})),
                 0);
  return p;
}

/// Heterogeneous storage variants batched together: two EDLCs with very
/// different C/Rleak, an LIC, and a battery, all in one campaign block. The
/// decay memos must key on each lane's own coefficients — a regression gate
/// for cross-lane memo bleed.
TEST(BatchRunner, ByteIdenticalAcrossHeterogeneousStorageVariants) {
  CampaignSpec spec;
  spec.platforms.push_back(
      {"leaky", [](std::uint64_t) { return leaky_platform(); }});
  spec.platforms.push_back(
      {"steady", [](std::uint64_t) { return steady_platform(); }});
  spec.platforms.push_back(
      {"lic", [](std::uint64_t) { return lic_platform(); }});
  spec.platforms.push_back(
      {"battery", [](std::uint64_t) { return battery_buffered_platform(); }});
  Scenario sc;
  sc.name = "mixed-storage";
  sc.environment = outdoor_factory();
  sc.duration = Seconds{3600.0};
  sc.options.dt = Seconds{5.0};
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {4, 21};
  expect_matches_one_lane_runs(spec);
}

// ---------------------------------------------------------------------------
// Energy-ledger leak detector
// ---------------------------------------------------------------------------

CampaignSpec leak_grid(bool leaky) {
  CampaignSpec spec;
  if (leaky)
    spec.platforms.push_back(
        {"leaky", [](std::uint64_t) { return leaky_platform(); }});
  else
    spec.platforms.push_back(
        {"steady", [](std::uint64_t) { return steady_platform(); }});
  Scenario sc;
  // Midnight to noon: the capacitor idles through the dark first half, then
  // the sun charges it through the second — the leaky config's v^2/R loss
  // explodes once voltage builds, while the near-full healthy config's loss
  // rate barely moves.
  sc.name = "charge-up";
  sc.environment = outdoor_factory();
  sc.duration = Seconds{43200.0};
  sc.options.dt = Seconds{5.0};
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {2};
  return spec;
}

TEST(LeakDetector, FlagsSuperlinearStorageLoss) {
  Campaign c(leak_grid(true));
  c.run();
  ASSERT_EQ(c.leak_warnings().size(), 1u);
  const auto& w = c.leak_warnings().front();
  EXPECT_EQ(w.platform_index, 0u);
  EXPECT_EQ(w.scenario_index, 0u);
  EXPECT_EQ(w.seed_index, 0u);
  EXPECT_EQ(w.seed, 2u);
  EXPECT_GT(w.second_half_loss_j, 2.0 * w.first_half_loss_j);
  EXPECT_GT(w.second_half_loss_j - w.first_half_loss_j, 1e-6);

  const auto snap = c.metrics();
  const auto* counter = snap.find("campaign.leak_warnings");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->count, 1u);
  const auto* gauge = snap.find("campaign.leak_excess_max_j");
  ASSERT_NE(gauge, nullptr);
  EXPECT_GT(gauge->value, 0.0);
}

TEST(LeakDetector, StaysQuietOnSteadyStateLoss) {
  Campaign c(leak_grid(false));
  c.run();
  EXPECT_TRUE(c.leak_warnings().empty());
}

// ---------------------------------------------------------------------------
// Run-health timeline on the batched path
// ---------------------------------------------------------------------------

TEST(RunTimeline, ByteIdenticalAcrossLaneWidthsWithSamplingOn) {
  CampaignSpec spec = systems_grid();
  spec.scenarios[0].options.timeline_dt = Seconds{60.0};
  expect_matches_one_lane_runs(spec);
}

TEST(RunTimeline, FaultedGridByteIdenticalWithSamplingOn) {
  // The sampler's periodic is one more event on each lane — a read, never
  // a physics one. Faults layered on top must still reproduce the one-lane
  // runs byte for byte.
  CampaignSpec spec;
  spec.platforms.push_back(
      {"system-b", [](std::uint64_t s) { return systems::build_system_b(s); }});
  Scenario sc;
  sc.name = "faulted-sampled";
  sc.environment = outdoor_factory();
  sc.duration = Seconds{7200.0};
  sc.options.dt = Seconds{5.0};
  sc.options.timeline_dt = Seconds{120.0};
  sc.options.mean_query_interval = Seconds{120.0};
  sc.injector =
      rows_injector("600,harvester_intermittent,input:0,0.4,,,\n"
                    "2400,harvester_heal,input:0,,,,\n"
                    "1800,storage_leakage_spike,storage:0,25,1200,,\n"
                    "4200,converter_thermal_shutdown,input:0,,600,,\n");
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {5, 9};
  expect_matches_one_lane_runs(spec);
}

TEST(RunTimeline, SamplingOnVsOffReportsIdenticalBytesAtWidthEight) {
  CampaignSpec off = systems_grid();
  off.threads = 3;
  CampaignSpec on = systems_grid();
  on.threads = 3;
  on.scenarios[0].options.timeline_dt = Seconds{60.0};
  Campaign c_off(off);
  Campaign c_on(on);
  EXPECT_EQ(reports(c_off), reports(c_on));
  // Off: no job carries a timeline. On: every job does.
  for (const auto& job : c_off.results())
    EXPECT_EQ(job.result.timeline, nullptr);
  for (const auto& job : c_on.results()) {
    ASSERT_NE(job.result.timeline, nullptr);
    EXPECT_EQ(job.result.timeline->sample_count(), 30u);  // 1800 s / 60 s
  }
}

TEST(RunTimeline, BatchedSamplesMatchScalarExceptResidencyColumn) {
  const Seconds dt{5.0};
  const Seconds duration{1800.0};
  systems::RunOptions options;
  options.dt = dt;
  options.mean_query_interval = Seconds{120.0};
  options.timeline_dt = Seconds{60.0};

  auto model = env::Environment::outdoor(7);
  const auto trace = env::CompiledTrace::compile(model, dt, duration);

  auto a = systems::build_system_a(7);
  auto b = systems::build_system_b(7);
  systems::BatchRunner runner(trace, duration, options);
  runner.add_lane(*a);
  runner.add_lane(*b);
  const auto batched = runner.run();
  ASSERT_EQ(batched.size(), 2u);

  auto scalar = [&](std::unique_ptr<systems::Platform> p) {
    return one_lane_run(trace, duration, options, *p);
  };
  const auto ref_a = scalar(systems::build_system_a(7));
  const auto ref_b = scalar(systems::build_system_b(7));

  for (const auto& [got, want] : {std::pair{&batched[0], &ref_a},
                                  std::pair{&batched[1], &ref_b}}) {
    ASSERT_NE(got->timeline, nullptr);
    ASSERT_NE(want->timeline, nullptr);
    const auto& gt = *got->timeline;
    const auto& wt = *want->timeline;
    ASSERT_EQ(gt.columns(), wt.columns());
    ASSERT_EQ(gt.sample_count(), wt.sample_count());
    EXPECT_EQ(gt.time(), wt.time());
    for (std::size_t col = 0; col < gt.column_count(); ++col)
      EXPECT_EQ(gt.column(col), wt.column(col)) << gt.columns()[col];
    // Every column agrees with the one-lane run to the bit; the runner
    // adds no block-specific column.
    EXPECT_EQ(gt.find_column("soa_resident"), obs::Timeline::npos);
  }
}

/// The leaky and the steady platform batched in one campaign block: the
/// warning (and the losses it reports) must come out as each job's own
/// one-lane run_platform ledger says.
TEST(LeakDetector, WarningsAgreeAcrossLaneWidths) {
  CampaignSpec spec = leak_grid(true);
  spec.platforms.push_back(leak_grid(false).platforms.front());
  Campaign c(spec);
  c.run();
  EXPECT_EQ(c.lane_blocks(), 1u);
  ASSERT_EQ(c.leak_warnings().size(), 1u);
  const auto& w = c.leak_warnings().front();
  EXPECT_EQ(w.platform_index, 0u);

  const Scenario& sc = spec.scenarios.front();
  for (std::size_t p = 0; p < spec.platforms.size(); ++p) {
    auto platform = spec.platforms[p].make(spec.seeds.front());
    auto environment = sc.environment(spec.seeds.front());
    const auto alone = systems::run_platform(*platform, *environment,
                                             sc.duration, sc.options);
    EXPECT_EQ(to_string(alone), to_string(c.results()[p].result));
    if (p == 0) {
      EXPECT_EQ(w.first_half_loss_j, alone.ledger.storage_loss_first_half_j);
      EXPECT_EQ(w.second_half_loss_j,
                alone.ledger.storage_loss_j -
                    alone.ledger.storage_loss_first_half_j);
    }
  }
}

// ---------------------------------------------------------------------------
// Twin-panel curve share
// ---------------------------------------------------------------------------

/// A campaign over the midnight-to-noon half of an outdoor day, so the
/// panels see both dark steps and a full morning of lit ones.
CampaignSpec twin_grid(std::vector<PlatformVariant> platforms,
                       std::vector<std::uint64_t> seeds) {
  CampaignSpec spec;
  spec.platforms = std::move(platforms);
  Scenario sc;
  sc.name = "outdoor-morning";
  sc.environment = outdoor_factory();
  sc.duration = Seconds{43200.0};
  sc.options.dt = Seconds{5.0};
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = std::move(seeds);
  return spec;
}

/// The E5 buffer-sizing shape: one outdoor panel behind an oracle tracker
/// into a supercap of @p farads, feeding a node through a buck-boost rail.
std::unique_ptr<systems::Platform> buffer_variant(double farads) {
  systems::PlatformSpec spec;
  spec.name = "buffer";
  spec.quiescent_current = Amps{2e-6};
  auto p = std::make_unique<systems::Platform>(spec);
  p->add_input(std::make_unique<power::InputChain>(
      std::make_unique<harvest::PvPanel>("pv", harvest::PvPanel::Params{}),
      std::make_unique<power::OracleMppt>(),
      power::Converter::smart_buck_boost("fe"), Seconds{5.0}));
  storage::Supercapacitor::Params sp;
  sp.main_capacitance = Farads{farads};
  sp.slow_capacitance = Farads{0.0};
  sp.initial_voltage = Volts{3.0};
  p->add_storage(std::make_unique<storage::Supercapacitor>("buf", sp), 0);
  p->set_output(
      power::OutputChain(power::Converter::smart_buck_boost("out"), Volts{3.0}));
  p->set_node(std::make_unique<node::SensorNode>(
      "node", node::McuParams{}, node::RadioParams{}, node::WorkloadParams{}));
  return p;
}

PlatformVariant catalog_variant(const std::string& name,
                                std::unique_ptr<systems::Platform> (*make)(
                                    std::uint64_t)) {
  return {name, [make](std::uint64_t s) { return make(s); }};
}

/// 19 variants: two full 8-lane blocks plus a 3-lane remainder.
TEST(TwinPanelShare, BufferSweepBlocksMatchRunPlatform) {
  std::vector<PlatformVariant> variants;
  for (const double f : {0.5, 1.0, 1.5, 2.2, 3.3, 4.7, 6.8, 10.0, 15.0, 22.0,
                         33.0, 47.0, 68.0, 100.0, 150.0, 220.0, 330.0, 470.0,
                         680.0})
    variants.push_back({"buf-" + std::to_string(f),
                        [f](std::uint64_t) { return buffer_variant(f); }});
  expect_matches_one_lane_runs(twin_grid(std::move(variants), {3, 17}));
}

TEST(TwinPanelShare, SystemATwinPanelsMatchRunPlatform) {
  expect_matches_one_lane_runs(twin_grid(
      {catalog_variant("system-a", systems::build_system_a)}, {3, 17}));
}

TEST(TwinPanelShare, SystemAAndSystemCInOneBlockMatchRunPlatform) {
  expect_matches_one_lane_runs(
      twin_grid({catalog_variant("system-a", systems::build_system_a),
                 catalog_variant("system-c", systems::build_system_c)},
                {3, 17}));
}

/// System A under the example fault schedule, plus one lane whose PV1 is
/// degraded from the start and one whose PV2 tracker sees drifted sensing:
/// the drift feeds scaled conditions through the panel, so the twins' photo
/// currents diverge and the share keeps missing.
TEST(TwinPanelShare, DivergentTwinsUnderTheFaultScheduleMatchRunPlatform) {
  auto schedule = std::make_shared<const fault::Schedule>(fault::Schedule::load(
      std::string(MSEHSIM_SOURCE_DIR) + "/examples/schedules/system_a_faults.csv"));
  std::vector<PlatformVariant> variants;
  variants.push_back(catalog_variant("system-a", systems::build_system_a));
  variants.push_back({"system-a-degraded", [](std::uint64_t s) {
                        auto a = systems::build_system_a(s);
                        power::InputChain& chain = a->input(0);
                        auto panel = chain.replace_harvester(
                            std::make_unique<harvest::PvPanel>(
                                "placeholder", harvest::PvPanel::Params{}));
                        auto faulty = std::make_unique<fault::FaultyHarvester>(
                            std::move(panel), s);
                        faulty->degrade(0.5);
                        chain.replace_harvester(std::move(faulty));
                        return a;
                      }});
  variants.push_back({"system-a-drift", [](std::uint64_t s) {
                        auto a = systems::build_system_a(s);
                        a->input(1).set_sense_gain(1.3);
                        return a;
                      }});
  CampaignSpec spec = twin_grid(std::move(variants), {5, 9});
  spec.scenarios[0].duration = Seconds{86400.0};
  spec.scenarios[0].injector = schedule_injector(schedule);
  expect_matches_one_lane_runs(spec);
}

constexpr std::uint64_t kBlockSeed = 11;
const Seconds kBlockDuration{21600.0};  // midnight to 06:00: dark, then dawn

systems::RunOptions block_options() {
  systems::RunOptions options;
  options.dt = Seconds{5.0};
  options.mean_query_interval = Seconds{120.0};
  return options;
}

/// The System A lane's injector: an intermittent PV1 that heals, and a
/// leakage spike on its supercapacitor.
std::unique_ptr<fault::FaultInjector> block_injector(systems::Platform& p) {
  return reference::schedule_rows(
             "1800,harvester_intermittent,input:0,0.5,,,\n"
             "9000,harvester_heal,input:0,,,,\n"
             "3600,storage_leakage_spike,storage:0,25,1800,,\n")
      .build_injector(kBlockSeed, p.fault_targets());
}

/// to_string of @p platform's one-lane run over @p trace.
std::string one_lane_report(
    const std::shared_ptr<const env::CompiledTrace>& trace,
    systems::Platform& platform, fault::FaultInjector* injector) {
  return to_string(
      one_lane_run(trace, kBlockDuration, block_options(), platform, injector));
}

/// The lane-isolation gate on the engine itself: the same four lanes —
/// System A under a fault injector, System B, and two single-panel buffer
/// variants whose panels share one curve — fed to BatchRunner as one 4-lane
/// block and as two 2-lane blocks over one compiled trace. Every lane, in
/// every composition, must report the bytes of its one-lane run. A query
/// RNG shared across lanes, or a lane reading another lane's next event
/// time, breaks this.
TEST(BatchRunner, EveryBlockCompositionMatchesOneLaneRuns) {
  const Seconds duration = kBlockDuration;
  const systems::RunOptions options = block_options();
  auto model = env::Environment::outdoor(kBlockSeed);
  const auto trace = env::CompiledTrace::compile(model, options.dt, duration);

  using Build = std::unique_ptr<systems::Platform> (*)();
  const std::vector<Build> builds = {
      [] { return systems::build_system_a(kBlockSeed); },
      [] { return systems::build_system_b(kBlockSeed); },
      [] { return buffer_variant(4.7); },
      [] { return buffer_variant(47.0); },
  };

  std::vector<std::string> alone;
  for (std::size_t l = 0; l < builds.size(); ++l) {
    auto p = builds[l]();
    auto inj = l == 0 ? block_injector(*p) : nullptr;  // lane 0 is faulted
    alone.push_back(one_lane_report(trace, *p, inj.get()));
    if (l == 0) {
      EXPECT_GE(inj->counters().harvester, 1u);
    }
  }

  for (const std::size_t block_lanes : {4u, 2u}) {
    std::vector<std::string> got;
    for (std::size_t first = 0; first < builds.size(); first += block_lanes) {
      std::vector<std::unique_ptr<systems::Platform>> platforms;
      std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
      systems::BatchRunner runner(trace, duration, options);
      for (std::size_t l = first; l < first + block_lanes; ++l) {
        platforms.push_back(builds[l]());
        injectors.push_back(l == 0 ? block_injector(*platforms.back())
                                   : nullptr);
        runner.add_lane(*platforms.back(), injectors.back().get());
      }
      for (const auto& result : runner.run()) got.push_back(to_string(result));
    }
    EXPECT_EQ(alone, got) << block_lanes << "-lane blocks";
  }
}

/// The one per-step span site: a traced BatchRunner times exactly 1 in
/// every kStepSampleStride lane-steps of its run as "platform.step" — the
/// first lane-step and every stride-th after it — and tracing moves no
/// result byte. Three lanes (System A under the injector, System B, and a
/// buffer variant whose panel is System A's twin) over N steps give
/// ceil(3N / stride) spans.
TEST(TraceCollector, BatchRunnerTimesOneInEveryStrideLaneSteps) {
  const systems::RunOptions options = block_options();
  auto model = env::Environment::outdoor(kBlockSeed);
  const auto trace =
      env::CompiledTrace::compile(model, options.dt, kBlockDuration);
  const std::uint64_t steps = trace->step_count();
  ASSERT_EQ(steps, 4320u);

  auto& collector = obs::TraceCollector::instance();
  const auto run_block = [&](bool traced) {
    std::vector<std::unique_ptr<systems::Platform>> platforms;
    platforms.push_back(systems::build_system_a(kBlockSeed));
    platforms.push_back(systems::build_system_b(kBlockSeed));
    platforms.push_back(buffer_variant(4.7));
    const auto injector = block_injector(*platforms[0]);
    systems::BatchRunner runner(trace, kBlockDuration, options);
    for (auto& p : platforms)
      runner.add_lane(*p, p == platforms[0] ? injector.get() : nullptr);
    if (traced) collector.enable();
    const auto results = runner.run();
    collector.disable();
    std::vector<std::string> out;
    for (const auto& r : results) out.push_back(to_string(r));
    return out;
  };

  const auto traced = run_block(true);
  const auto events = collector.snapshot_events();
  const auto untraced = run_block(false);
  EXPECT_EQ(traced, untraced);

  std::vector<std::string> alone;
  {
    auto a = systems::build_system_a(kBlockSeed);
    const auto injector = block_injector(*a);
    alone.push_back(one_lane_report(trace, *a, injector.get()));
    auto b = systems::build_system_b(kBlockSeed);
    alone.push_back(one_lane_report(trace, *b, nullptr));
    auto buffer = buffer_variant(4.7);
    alone.push_back(one_lane_report(trace, *buffer, nullptr));
  }
  EXPECT_EQ(traced, alone);

  constexpr std::uint64_t kStride = obs::TraceCollector::kStepSampleStride;
  const std::uint64_t lane_steps = 3 * steps;
  const auto step_spans = static_cast<std::uint64_t>(std::count_if(
      events.begin(), events.end(),
      [](const obs::TraceEvent& e) { return e.name == "platform.step"; }));
  EXPECT_EQ(step_spans, (lane_steps + kStride - 1) / kStride);
  EXPECT_EQ(step_spans, 13u);
  for (const auto& e : events) EXPECT_GE(e.dur_us, 0.0) << e.name;
}

/// add_lane attaches one share per distinct panel Params to every panel of
/// the block (System A's and System C's outdoor panels are the same model;
/// System B's indoor panel is not), and run() leaves no panel attached.
TEST(TwinPanelShare, RunnerAttachesOneSharePerPanelModelAndDetaches) {
  const Seconds dt{5.0};
  const Seconds duration{3600.0};
  systems::RunOptions options;
  options.dt = dt;
  auto model = env::Environment::outdoor(7);
  const auto trace = env::CompiledTrace::compile(model, dt, duration);

  auto a = systems::build_system_a(7);
  auto b = systems::build_system_b(7);
  auto c = systems::build_system_c(7);
  const auto share_of = [](systems::Platform& p, std::size_t input) {
    return dynamic_cast<const harvest::PvPanel&>(p.input(input).harvester())
        .curve_share();
  };
  {
    systems::BatchRunner runner(trace, duration, options);
    runner.add_lane(*a);
    runner.add_lane(*b);
    runner.add_lane(*c);
    const harvest::PvCurveShare* outdoor = share_of(*a, 0);
    ASSERT_NE(outdoor, nullptr);
    EXPECT_EQ(share_of(*a, 1), outdoor);
    EXPECT_EQ(share_of(*c, 0), outdoor);
    EXPECT_EQ(share_of(*c, 1), outdoor);
    ASSERT_NE(share_of(*b, 0), nullptr);
    EXPECT_NE(share_of(*b, 0), outdoor);
    (void)runner.run();
    EXPECT_EQ(share_of(*a, 0), nullptr);
    EXPECT_EQ(share_of(*b, 0), nullptr);
    EXPECT_EQ(share_of(*c, 1), nullptr);
  }
  {
    // A runner that never runs detaches in its destructor.
    systems::BatchRunner runner(trace, duration, options);
    runner.add_lane(*a);
    EXPECT_NE(share_of(*a, 0), nullptr);
  }
  EXPECT_EQ(share_of(*a, 0), nullptr);
}

// ---------------------------------------------------------------------------
// The one engine's clock, events and query stream
// ---------------------------------------------------------------------------

TEST(BatchRunner, RejectsBadDtAndDuration) {
  // Asserted on the constructors alone: a runner that accepted these would
  // spin forever in run() (dt = 0 with no lane to reject it) or size its
  // timeline from an infinite horizon.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto environment = env::Environment::outdoor(1);
  auto model = env::Environment::outdoor(1);
  const auto trace =
      env::CompiledTrace::compile(model, Seconds{1.0}, Seconds{60.0});
  for (const double bad : {0.0, -1.0, inf, nan}) {
    systems::RunOptions options;
    options.dt = Seconds{bad};
    EXPECT_THROW(
        (void)systems::BatchRunner(environment, Seconds{60.0}, options),
        SpecError)
        << "dt " << bad;
    EXPECT_THROW((void)systems::BatchRunner(environment, Seconds{bad},
                                            systems::RunOptions{}),
                 SpecError)
        << "duration " << bad;
    EXPECT_THROW(
        (void)systems::BatchRunner(trace, Seconds{bad}, systems::RunOptions{}),
        SpecError)
        << "duration " << bad << " over a trace";
  }
}

/// Full sun that never changes: every step of a PV lane harvests the same
/// energy.
class ConstantSun final : public env::EnvironmentModel {
 public:
  env::AmbientConditions advance(Seconds, Seconds) override {
    env::AmbientConditions c;
    c.solar_irradiance = WattsPerSquareMeter{800.0};
    return c;
  }
  [[nodiscard]] std::string description() const override {
    return "constant sun";
  }
};

/// A monitor that records the platform's harvested energy at every
/// management tick.
class HarvestAtTick final : public manager::EnergyMonitor {
 public:
  HarvestAtTick(const systems::Platform& platform, std::vector<double>& seen)
      : platform_(platform), seen_(seen) {}
  [[nodiscard]] taxonomy::MonitoringCapability capability() const override {
    return taxonomy::MonitoringCapability::kNone;
  }
  manager::EnergyEstimate estimate() override {
    seen_.push_back(platform_.harvested_energy().value());
    return {};
  }

 private:
  const systems::Platform& platform_;
  std::vector<double>& seen_;
};

TEST(BatchRunner, EventsFireBeforeTheStepTheyFallIn) {
  // Under constant sun the energy harvested when an event fires counts the
  // steps behind it. An event at time t falls in step floor(t / dt) and
  // fires at that step's start: exactly floor(t / dt) steps have run.
  // Management ticks every 60 s and a fault at 400.5 s, over 7 s steps.
  systems::RunOptions options;
  options.dt = Seconds{7.0};
  ConstantSun sun;
  const double step_j = [&] {
    auto p = pv_platform({});
    systems::run_platform(*p, sun, options.dt, options);
    return p->harvested_energy().value();
  }();
  ASSERT_GT(step_j, 0.0);

  auto p = pv_platform({});
  std::vector<double> at_tick;
  p->set_monitor(std::make_unique<HarvestAtTick>(*p, at_tick));
  auto inj = reference::schedule_rows(
                 "400.5,harvester_stuck_short,input:0,,,,\n")  // step [399, 406)
                 .build_injector(1, p->fault_targets());
  systems::run_platform(*p, sun, Seconds{420.0}, options, inj.get());

  ASSERT_EQ(at_tick.size(), 7u);  // t = 0, 60, ..., 360
  for (std::size_t k = 0; k < at_tick.size(); ++k) {
    const double steps_behind = std::floor(60.0 * static_cast<double>(k) / 7.0);
    EXPECT_NEAR(at_tick[k], steps_behind * step_j, 1e-9 * step_j)
        << "tick at " << 60 * k << " s";
  }
  EXPECT_EQ(inj->counters().harvester, 1u);
  EXPECT_NEAR(p->harvested_energy().value(), 57.0 * step_j, 1e-9 * step_j);
}

TEST(BatchRunner, MidRunProbeFiresInTheStepContainingHalfDuration) {
  // The ledger's first-half storage loss is read at duration / 2, at the
  // start of the step containing it: over 21 s of 1 s steps that is
  // t = 10.5, with 10 steps behind it. So it equals the whole-run loss of a
  // 10-step run, bit for bit, and not that of an 11-step one.
  systems::RunOptions options;
  options.dt = Seconds{1.0};
  ConstantSun sun;
  const auto ledger = [&](double duration) {
    std::vector<std::unique_ptr<storage::StorageDevice>> stores;
    stores.push_back(plain_supercap());
    auto p = pv_platform(std::move(stores));
    return systems::run_platform(*p, sun, Seconds{duration}, options).ledger;
  };
  const auto whole = ledger(21.0);
  EXPECT_GT(whole.storage_loss_first_half_j, 0.0);
  EXPECT_EQ(whole.storage_loss_first_half_j, ledger(10.0).storage_loss_j);
  EXPECT_NE(whole.storage_loss_first_half_j, ledger(11.0).storage_loss_j);
}

TEST(BatchRunner, TimelineRowsSitAtTheAccumulatedStepStarts) {
  // duration / timeline_dt rows, each stamped with the start of the step its
  // sample time falls in: k * 60 s when dt divides the cadence, the
  // enclosing 7 s step's start when it does not.
  ConstantSun sun;
  for (const double dt : {5.0, 7.0}) {
    systems::RunOptions options;
    options.dt = Seconds{dt};
    options.timeline_dt = Seconds{60.0};
    auto p = pv_platform({});
    const auto r = systems::run_platform(*p, sun, Seconds{840.0}, options);
    ASSERT_NE(r.timeline, nullptr);
    const auto& times = r.timeline->time();
    ASSERT_EQ(times.size(), 14u) << dt;
    for (std::size_t k = 0; k < times.size(); ++k)
      EXPECT_EQ(times[k], dt * std::floor(60.0 * static_cast<double>(k) / dt))
          << "dt " << dt << ", row " << k;
  }
}

TEST(BatchRunner, QueryArrivalsFollowTheSeededStream) {
  // One Bernoulli draw per lane per step at p = min(1, dt / interval), from
  // the lane's own Pcg32(kQuerySeed, stream_key("queries")): each node's
  // queries_received is that stream's success count, whichever lanes share
  // its block.
  const Seconds dt{5.0};
  const Seconds duration{3600.0};
  auto model = env::Environment::outdoor(7);
  const auto trace = env::CompiledTrace::compile(model, dt, duration);
  for (const double interval : {120.0, 2.0}) {
    const double p_arrival = std::min(1.0, dt.value() / interval);
    Pcg32 stream(systems::kQuerySeed, stream_key("queries"));
    std::uint64_t arrivals = 0;
    for (std::uint64_t step = 0; step < trace->step_count(); ++step)
      if (stream.bernoulli(p_arrival)) ++arrivals;

    systems::RunOptions options;
    options.dt = dt;
    options.mean_query_interval = Seconds{interval};
    auto a = systems::build_system_a(7);
    auto b = systems::build_system_b(7);
    systems::BatchRunner runner(trace, duration, options);
    runner.add_lane(*a);
    runner.add_lane(*b);
    for (const auto& r : runner.run())
      EXPECT_EQ(r.queries_received, arrivals) << "interval " << interval;
  }
}

/// Heap allocations made by run() of a BatchRunner over @p days of the
/// outdoor scenario at dt 5 s with the timeline off. @p fill adds the lanes
/// (and builds whatever they need) before counting starts, so only run()
/// is counted: the per-step work plus the result assembly at the end.
template <typename Fill>
std::size_t run_allocations(double days, Fill&& fill) {
  systems::RunOptions options;
  options.dt = Seconds{5.0};
  options.mean_query_interval = Seconds{120.0};
  const Seconds duration{days * 86400.0};
  auto model = env::Environment::outdoor(kBlockSeed);
  const auto trace = env::CompiledTrace::compile(model, options.dt, duration);
  std::vector<std::unique_ptr<systems::Platform>> platforms;
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
  systems::BatchRunner runner(trace, duration, options);
  fill(runner, platforms, injectors);
  const std::size_t before = test_alloc::heap_allocations.load();
  const auto results = runner.run();
  const std::size_t after = test_alloc::heap_allocations.load();
  EXPECT_EQ(results.size(), platforms.size());
  return after - before;
}

/// The step loop allocates nothing: a run twice as long makes exactly as
/// many heap allocations, so none of them is per step. Covers the eight
/// catalog systems as one block, and System A under the example fault
/// schedule (injector events, failover and bus retries mid-run).
TEST(BatchRunner, StepLoopAllocatesNothing) {
  const auto catalog = [](systems::BatchRunner& runner, auto& platforms,
                          auto&) {
    for (const auto id :
         {systems::SystemId::kSmartPowerUnit, systems::SystemId::kPlugAndPlay,
          systems::SystemId::kAmbiMax, systems::SystemId::kMpWiNode,
          systems::SystemId::kMax17710Eval, systems::SystemId::kCymbetEval09,
          systems::SystemId::kEhLink, systems::SystemId::kSmartHarvester}) {
      platforms.push_back(systems::build(id, kBlockSeed));
      runner.add_lane(*platforms.back());
    }
  };
  EXPECT_EQ(run_allocations(1.0, catalog), run_allocations(2.0, catalog))
      << "8 catalog systems";

  const auto schedule =
      std::make_shared<const fault::Schedule>(fault::Schedule::load(
          std::string(MSEHSIM_SOURCE_DIR) +
          "/examples/schedules/system_a_faults.csv"));
  const auto faulted = [&](systems::BatchRunner& runner, auto& platforms,
                           auto& injectors) {
    platforms.push_back(systems::build_system_a(kBlockSeed));
    injectors.push_back(
        schedule_injector(schedule)(kBlockSeed, *platforms.back()));
    runner.add_lane(*platforms.back(), injectors.back().get());
  };
  EXPECT_EQ(run_allocations(1.0, faulted), run_allocations(2.0, faulted))
      << "System A under the example fault schedule";
}

}  // namespace
}  // namespace msehsim::campaign
