// Integration: full platforms running in full environments via the runner;
// energy books must balance and survey-level behaviours must emerge.
#include <gtest/gtest.h>

#include <algorithm>

#include "bus/datasheet.hpp"
#include "bus/module_port.hpp"
#include "env/environment.hpp"
#include "storage/fuel_cell.hpp"
#include "storage/supercapacitor.hpp"
#include "systems/catalog.hpp"
#include "systems/runner.hpp"

namespace msehsim::systems {
namespace {

constexpr std::uint64_t kSeed = 77;
constexpr double kDay = 86400.0;

RunOptions fast_opts() {
  RunOptions o;
  o.dt = Seconds{5.0};
  o.management_period = Seconds{60.0};
  return o;
}

TEST(Integration, SystemASurvivesAnOutdoorDay) {
  auto a = build_system_a(kSeed);
  auto env = env::Environment::outdoor(kSeed);
  const auto r = run_platform(*a, env, Seconds{kDay}, fast_opts());
  EXPECT_GT(r.harvested.value(), 0.0);
  EXPECT_GT(r.packets, 0u);
  EXPECT_GT(r.availability, 0.9);
}

TEST(Integration, SystemBSurvivesAnIndoorDay) {
  auto b = build_system_b(kSeed);
  auto env = env::Environment::indoor_industrial(kSeed);
  const auto r = run_platform(*b, env, Seconds{kDay}, fast_opts());
  EXPECT_GT(r.harvested.value(), 0.0);
  EXPECT_GT(r.packets, 0u);
}

TEST(Integration, EnergyBooksBalance) {
  // harvested + initial storage >= load + quiescent + final-initial delta
  // (converter and storage losses absorb the rest; nothing is created).
  auto a = build_system_a(kSeed);
  auto env = env::Environment::outdoor(kSeed);
  const double stored_before = a->total_stored().value();
  const auto r = run_platform(*a, env, Seconds{kDay}, fast_opts());
  const double stored_after = r.final_stored.value();
  const double in = r.harvested.value() + stored_before;
  const double out = r.load.value() + r.quiescent.value() + stored_after;
  EXPECT_GE(in + 1.0, out);  // 1 J slack for bookkeeping granularity
}

TEST(Integration, DeterministicAcrossRuns) {
  auto env1 = env::Environment::outdoor(123);
  auto env2 = env::Environment::outdoor(123);
  auto a1 = build_system_a(123);
  auto a2 = build_system_a(123);
  const auto r1 = run_platform(*a1, env1, Seconds{kDay / 4}, fast_opts());
  const auto r2 = run_platform(*a2, env2, Seconds{kDay / 4}, fast_opts());
  EXPECT_DOUBLE_EQ(r1.harvested.value(), r2.harvested.value());
  EXPECT_EQ(r1.packets, r2.packets);
  EXPECT_DOUBLE_EQ(r1.final_stored.value(), r2.final_stored.value());
}

TEST(Integration, DifferentSeedsDifferentWeather) {
  auto env1 = env::Environment::outdoor(1);
  auto env2 = env::Environment::outdoor(2);
  auto a1 = build_system_a(1);
  auto a2 = build_system_a(2);
  const auto r1 = run_platform(*a1, env1, Seconds{kDay}, fast_opts());
  const auto r2 = run_platform(*a2, env2, Seconds{kDay}, fast_opts());
  EXPECT_NE(r1.harvested.value(), r2.harvested.value());
}

/// The run's recorder is its timeline: SoC and bus voltage every 600 s.
TEST(Integration, RecorderCapturesSeries) {
  auto b = build_system_b(kSeed);
  auto env = env::Environment::indoor_industrial(kSeed);
  RunOptions o = fast_opts();
  o.timeline_dt = Seconds{600.0};
  const auto r = run_platform(*b, env, Seconds{kDay}, o);
  ASSERT_NE(r.timeline, nullptr);
  const std::size_t soc_col = r.timeline->find_column("soc");
  const std::size_t bus_col = r.timeline->find_column("bus_voltage_v");
  ASSERT_NE(soc_col, obs::Timeline::npos);
  ASSERT_NE(bus_col, obs::Timeline::npos);
  const auto& soc = r.timeline->column(soc_col);
  const auto& bus_v = r.timeline->column(bus_col);
  EXPECT_GT(soc.size(), 100u);
  EXPECT_GT(bus_v.size(), 100u);
  EXPECT_GE(*std::min_element(soc.begin(), soc.end()), 0.0);
  EXPECT_LE(*std::max_element(soc.begin(), soc.end()), 1.0 + 1e-9);
  EXPECT_GT(*std::max_element(bus_v.begin(), bus_v.end()), 0.0);
}

TEST(Integration, FuelCellTakesOverWhenAmbientDies) {
  // Survey claim C6: System A's fuel cell switches in when environmental
  // harvest cannot sustain the node. Deplete the ambient stores first (a
  // long overcast winter), then run dark days.
  auto a = build_system_a(kSeed);
  for (std::size_t i = 0; i < a->storage_count(); ++i) {
    auto& dev = a->store(i);
    if (!dev.rechargeable()) continue;
    for (int k = 0; k < 100000 && dev.soc() > 0.05; ++k)
      dev.discharge(Watts{3.0}, Seconds{60.0});
  }
  ASSERT_LT(a->ambient_soc(), 0.25);
  env::Environment dead(kSeed, "dead calm");  // no channels at all
  const auto r = run_platform(*a, dead, Seconds{3.0 * kDay}, fast_opts());
  storage::FuelCell* cell = nullptr;
  for (std::size_t i = 0; i < a->storage_count(); ++i)
    if (a->store(i).kind() == storage::StorageKind::kFuelCell)
      cell = dynamic_cast<storage::FuelCell*>(&a->store(i));
  ASSERT_NE(cell, nullptr);
  EXPECT_GT(cell->depletion(), 0.0);  // fuel was burned
  EXPECT_GT(r.availability, 0.5);     // and the node stayed up on it
}

TEST(Integration, DutyCycleAdaptsToScarcity) {
  // System B's controller must lengthen the task period in a dark office
  // compared with a bright industrial site.
  auto rich = build_system_b(kSeed);
  auto poor = build_system_b(kSeed);
  auto env_rich = env::Environment::indoor_industrial(kSeed);
  auto env_poor = env::Environment::office(kSeed);
  run_platform(*rich, env_rich, Seconds{2.0 * kDay}, fast_opts());
  run_platform(*poor, env_poor, Seconds{2.0 * kDay}, fast_opts());
  EXPECT_GE(poor->node()->task_period().value(),
            rich->node()->task_period().value());
}

TEST(Integration, AllSurveyedSystemsRunWithoutCrashing) {
  const auto all = build_all_surveyed(kSeed);
  auto outdoor = env::Environment::outdoor(kSeed);
  auto indoor = env::Environment::indoor_industrial(kSeed);
  auto agri = env::Environment::agricultural(kSeed);
  for (std::size_t i = 0; i < all.size(); ++i) {
    env::EnvironmentModel* env = &indoor;
    if (i == 0 || i == 2) env = &outdoor;  // A, C outdoor
    if (i == 3) env = &agri;               // D agricultural
    const auto r = run_platform(*all[i], *env, Seconds{kDay / 2}, fast_opts());
    EXPECT_GE(r.harvested.value(), 0.0) << "system " << i;
    EXPECT_GE(r.availability, 0.0) << "system " << i;
  }
}

TEST(Integration, HotSwapKeepsSystemBAware) {
  // Swap System B's supercap module for a smaller one mid-run with a
  // self-announcing port; the monitor's capacity belief must follow.
  auto b = build_system_b(kSeed);
  auto env = env::Environment::indoor_industrial(kSeed);
  run_platform(*b, env, Seconds{3600.0}, fast_opts());
  b->management_tick(Seconds{0.0});
  const double cap_before = b->last_estimate().capacity.value();

  storage::Supercapacitor::Params sp;
  sp.main_capacitance = Farads{2.0};
  sp.initial_voltage = Volts{2.5};
  auto replacement =
      std::make_unique<storage::Supercapacitor>("b.supercap2", sp);
  bus::ElectronicDatasheet ds;
  ds.device_class = bus::DeviceClass::kStorage;
  ds.model = "PNP-SC2F";
  ds.storage_kind = storage::StorageKind::kSupercapacitor;
  ds.capacity = replacement->capacity();
  ds.max_voltage = Volts{5.0};
  bus::ModulePort::Telemetry t;
  auto* dev = replacement.get();
  t.stored_energy = [dev] { return dev->stored_energy(); };
  t.terminal_voltage = [dev] { return dev->voltage(); };
  auto port = std::make_unique<bus::ModulePort>(0x14, ds, std::move(t));

  b->swap_storage(0, std::move(replacement), std::move(port), 0x14);
  b->management_tick(Seconds{0.0});
  const double cap_after = b->last_estimate().capacity.value();
  // The believed capacity must track the actual bank (supercap module is a
  // fraction of the NiMH-dominated total, so compare against ground truth).
  double actual = 0.0;
  for (std::size_t i = 0; i < b->storage_count(); ++i)
    actual += b->store(i).capacity().value();
  EXPECT_LT(cap_after, cap_before - 50.0);        // saw the module shrink
  EXPECT_NEAR(cap_after, actual, actual * 0.02);  // and matches reality
}

TEST(Integration, DutyControllerSpendsSurplus) {
  // System B's reactive SoC controller must turn a rich indoor harvest into
  // traffic, not merely stay alive: a controller parked at max_period would
  // send one packet per max_period and keep availability at 1.0, so the
  // packet floor is ten times that. The bank starts below the SoC target, so
  // the controller rightly holds max_period for about two days while it
  // recharges; the third day is the one that spends the surplus.
  auto b = build_system_b(kSeed);
  auto env = env::Environment::indoor_industrial(kSeed);
  const Seconds duration{3 * kDay};
  const double t_max = b->node()->workload().max_period.value();
  const auto r = run_platform(*b, env, duration, fast_opts());
  EXPECT_GT(r.availability, 0.9);
  EXPECT_GT(static_cast<double>(r.packets), 10.0 * duration.value() / t_max);
}

TEST(Integration, QueryTrafficReachesWakeUpRadioNodes) {
  // System A's node carries a wake-up receiver; run with query traffic and
  // nearly all queries must be answered while the node is up.
  auto a = build_system_a(kSeed);
  auto env = env::Environment::outdoor(kSeed);
  RunOptions o = fast_opts();
  o.mean_query_interval = Seconds{300.0};
  const auto r = run_platform(*a, env, Seconds{kDay / 2}, o);
  EXPECT_GT(r.queries_received, 50u);
  EXPECT_GT(static_cast<double>(r.queries_answered) /
                static_cast<double>(r.queries_received),
            0.9);
}

TEST(Integration, QueryTrafficLostWithoutWakeUpRadio) {
  // System B's node has no wake-up receiver: every async query is missed.
  auto b = build_system_b(kSeed);
  auto env = env::Environment::indoor_industrial(kSeed);
  RunOptions o = fast_opts();
  o.mean_query_interval = Seconds{300.0};
  const auto r = run_platform(*b, env, Seconds{kDay / 2}, o);
  EXPECT_GT(r.queries_received, 50u);
  EXPECT_EQ(r.queries_answered, 0u);
}

TEST(Integration, NoQueryTrafficByDefault) {
  auto a = build_system_a(kSeed);
  auto env = env::Environment::outdoor(kSeed);
  const auto r = run_platform(*a, env, Seconds{3600.0}, fast_opts());
  EXPECT_EQ(r.queries_received, 0u);
}

}  // namespace
}  // namespace msehsim::systems
