// Fault-injection layer: deterministic schedules, component degradation
// hooks, reaction policies (failover, retry), and the acceptance scenarios
// from the robustness milestone — bit-identical replay and System A staying
// alive on fuel-cell failover with every ambient source faulted.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

#include "bus/module_port.hpp"
#include "core/error.hpp"
#include "core/event_queue.hpp"
#include "env/environment.hpp"
#include "fault/faulty_harvester.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "harvest/transducers.hpp"
#include "manager/monitor.hpp"
#include "manager/policies.hpp"
#include "power/chain.hpp"
#include "storage/battery.hpp"
#include "storage/fuel_cell.hpp"
#include "storage/supercapacitor.hpp"
#include "systems/catalog.hpp"
#include "systems/runner.hpp"
#include "schedule_rows.hpp"

namespace msehsim::fault {
namespace {

constexpr std::uint64_t kSeed = 42;

using reference::schedule_rows;

env::AmbientConditions sunny(double g = 800.0) {
  env::AmbientConditions c;
  c.solar_irradiance = WattsPerSquareMeter{g};
  return c;
}

std::unique_ptr<harvest::Harvester> pv(const char* name = "pv") {
  return std::make_unique<harvest::PvPanel>(name, harvest::PvPanel::Params{});
}

std::unique_ptr<power::InputChain> pv_chain(const char* name = "pv") {
  return std::make_unique<power::InputChain>(
      pv(name), std::make_unique<power::OracleMppt>(),
      power::Converter::smart_buck_boost("fe"), Seconds{10.0});
}

/// The injectable surface of a standalone @p chain: it is "input:0".
ScheduleTargets chain_targets(power::InputChain& chain) {
  ScheduleTargets targets;
  targets.inputs = {&chain};
  return targets;
}

/// Steps @p chain once under full sun and returns the delivered power.
Watts step_once(power::InputChain& chain, int i) {
  return chain.step(sunny(), Volts{3.3}, Seconds{static_cast<double>(i)},
                    Seconds{1.0});
}

/// Runs @p steps fixed steps of @p dt from @p now in BatchRunner::run's
/// order: the events due in each step's window fire, then @p step(now, dt)
/// does the step's work. Returns the clock after the last step.
template <typename Step>
Seconds run_steps(EventQueue& events, Seconds now, Seconds dt, int steps,
                  Step step) {
  for (int k = 0; k < steps; ++k) {
    events.dispatch(now, dt);
    step(now, dt);
    now += dt;
  }
  return now;
}

// ---------------------------------------------------------------------------
// FaultyHarvester decorator
// ---------------------------------------------------------------------------

TEST(FaultyHarvester, HealthyIsTransparent) {
  auto plain = pv();
  FaultyHarvester wrapped(pv(), kSeed);
  plain->set_conditions(sunny());
  wrapped.set_conditions(sunny());
  EXPECT_DOUBLE_EQ(wrapped.current_at(Volts{2.0}).value(),
                   plain->current_at(Volts{2.0}).value());
  EXPECT_DOUBLE_EQ(wrapped.open_circuit_voltage().value(),
                   plain->open_circuit_voltage().value());
  EXPECT_TRUE(wrapped.producing());
  EXPECT_EQ(wrapped.faulted_steps(), 0u);
}

TEST(FaultyHarvester, DegradedScalesCurrent) {
  auto plain = pv();
  FaultyHarvester wrapped(pv(), kSeed);
  wrapped.degrade(0.25);
  plain->set_conditions(sunny());
  wrapped.set_conditions(sunny());
  EXPECT_NEAR(wrapped.current_at(Volts{2.0}).value(),
              0.25 * plain->current_at(Volts{2.0}).value(), 1e-15);
  EXPECT_TRUE(wrapped.producing());
  EXPECT_EQ(wrapped.faulted_steps(), 1u);
}

TEST(FaultyHarvester, StuckShortKillsOutput) {
  FaultyHarvester wrapped(pv(), kSeed);
  wrapped.stick_short();
  wrapped.set_conditions(sunny());
  EXPECT_FALSE(wrapped.producing());
  EXPECT_DOUBLE_EQ(wrapped.current_at(Volts{2.0}).value(), 0.0);
  EXPECT_DOUBLE_EQ(wrapped.open_circuit_voltage().value(), 0.0);
}

TEST(FaultyHarvester, HealRestoresAndCountsTransitions) {
  FaultyHarvester wrapped(pv(), kSeed);
  wrapped.stick_short();
  wrapped.heal();
  wrapped.set_conditions(sunny());
  EXPECT_TRUE(wrapped.producing());
  EXPECT_GT(wrapped.current_at(Volts{2.0}).value(), 0.0);
  EXPECT_EQ(wrapped.transitions(), 2u);
}

TEST(FaultyHarvester, IntermittentPatternReplaysBitForBit) {
  FaultyHarvester a(pv(), kSeed);
  FaultyHarvester b(pv(), kSeed);
  a.set_intermittent(0.5);
  b.set_intermittent(0.5);
  for (int i = 0; i < 200; ++i) {
    a.set_conditions(sunny());
    b.set_conditions(sunny());
    EXPECT_EQ(a.producing(), b.producing()) << "step " << i;
  }
  EXPECT_EQ(a.faulted_steps(), b.faulted_steps());
  // p = 0.5 over 200 steps: both open and closed steps occur.
  EXPECT_GT(a.faulted_steps(), 0u);
  EXPECT_LT(a.faulted_steps(), 200u);
}

TEST(FaultyHarvester, DifferentSeedsDifferentPatterns) {
  FaultyHarvester a(pv(), 1);
  FaultyHarvester b(pv(), 2);
  a.set_intermittent(0.5);
  b.set_intermittent(0.5);
  int diverged = 0;
  for (int i = 0; i < 200; ++i) {
    a.set_conditions(sunny());
    b.set_conditions(sunny());
    if (a.producing() != b.producing()) ++diverged;
  }
  EXPECT_GT(diverged, 0);
}

TEST(FaultyHarvester, RejectsBadFractions) {
  FaultyHarvester wrapped(pv(), kSeed);
  EXPECT_THROW(wrapped.degrade(-0.1), SpecError);
  EXPECT_THROW(wrapped.degrade(1.1), SpecError);
  EXPECT_THROW(wrapped.set_intermittent(1.5), SpecError);
}

TEST(FaultyHarvester, TransitionInvalidatesMppCache) {
  // The conditions key never changes here, so only the explicit
  // invalidate-on-transition hook keeps the cached MPP honest.
  FaultyHarvester wrapped(pv(), kSeed);
  wrapped.set_conditions(sunny());
  const auto healthy = wrapped.maximum_power_point();
  EXPECT_GT(healthy.p.value(), 0.0);
  EXPECT_EQ(wrapped.mpp_recomputes(), 1u);

  wrapped.stick_short();
  const auto shorted = wrapped.maximum_power_point();
  EXPECT_EQ(wrapped.mpp_recomputes(), 2u);
  EXPECT_DOUBLE_EQ(shorted.p.value(), 0.0);

  wrapped.heal();
  const auto healed = wrapped.maximum_power_point();
  EXPECT_EQ(wrapped.mpp_recomputes(), 3u);
  EXPECT_EQ(healed.v.value(), healthy.v.value());
  EXPECT_EQ(healed.p.value(), healthy.p.value());
}

TEST(FaultyHarvester, DegradationLevelChangeInvalidatesMppCache) {
  FaultyHarvester wrapped(pv(), kSeed);
  wrapped.set_conditions(sunny());
  const auto full = wrapped.maximum_power_point();
  wrapped.degrade(0.5);
  const auto half = wrapped.maximum_power_point();
  EXPECT_EQ(wrapped.mpp_recomputes(), 2u);
  EXPECT_LT(half.p.value(), full.p.value());
}

TEST(FaultyHarvester, IntermittentOpenCloseFlipsInvalidateMppCache) {
  // p = 1: every step is open, so the first step after enabling the fault
  // must flip the cached healthy MPP to zero even though conditions repeat.
  FaultyHarvester wrapped(pv(), kSeed);
  wrapped.set_conditions(sunny());
  EXPECT_GT(wrapped.maximum_power_point().p.value(), 0.0);
  wrapped.set_intermittent(1.0);
  wrapped.set_conditions(sunny());
  EXPECT_FALSE(wrapped.producing());
  EXPECT_DOUBLE_EQ(wrapped.maximum_power_point().p.value(), 0.0);

  // And with p = 0 the connection closes again: the healthy point returns.
  wrapped.set_intermittent(0.0);
  wrapped.set_conditions(sunny());
  EXPECT_TRUE(wrapped.producing());
  EXPECT_GT(wrapped.maximum_power_point().p.value(), 0.0);
}

// ---------------------------------------------------------------------------
// Converter fault hooks
// ---------------------------------------------------------------------------

TEST(ConverterFaults, EfficiencyDroopScalesDelivery) {
  auto clean = pv_chain();
  auto drooped = pv_chain();
  drooped->set_efficiency_droop(0.5);
  Watts p_clean{0.0};
  Watts p_droop{0.0};
  for (int i = 0; i < 30; ++i) {
    p_clean += step_once(*clean, i);
    p_droop += step_once(*drooped, i);
  }
  EXPECT_NEAR(p_droop.value(), 0.5 * p_clean.value(), 1e-9);
}

TEST(ConverterFaults, ThermalShutdownOpensThePath) {
  auto chain = pv_chain();
  for (int i = 0; i < 5; ++i) EXPECT_GT(step_once(*chain, i).value(), 0.0);
  chain->set_thermal_shutdown(true);
  for (int i = 5; i < 10; ++i) EXPECT_DOUBLE_EQ(step_once(*chain, i).value(), 0.0);
  chain->set_thermal_shutdown(false);
  EXPECT_GT(step_once(*chain, 10).value(), 0.0);
  EXPECT_EQ(chain->thermal_shutdowns(), 1u);  // rising edges, not steps
  EXPECT_EQ(chain->shutdown_steps(), 5u);
}

TEST(ConverterFaults, DroopValidation) {
  auto chain = pv_chain();
  EXPECT_THROW(chain->set_efficiency_droop(0.0), SpecError);
  EXPECT_THROW(chain->set_efficiency_droop(1.2), SpecError);
}

// ---------------------------------------------------------------------------
// Storage fault hooks
// ---------------------------------------------------------------------------

TEST(StorageFaults, BatteryCapacityFadeShrinksCapacity) {
  auto batt = storage::Battery::li_ion("b", AmpHours{0.1}, /*initial_soc=*/1.0);
  const double before = batt.capacity().value();
  batt.inject_capacity_fade(0.4);
  EXPECT_NEAR(batt.capacity().value(), 0.6 * before, 0.01 * before);
  // A full battery must not hold more charge than its faded capacity.
  EXPECT_LE(batt.stored_energy().value(), batt.capacity().value() + 1e-9);
}

TEST(StorageFaults, BatteryLeakageSpikeDrainsFaster) {
  auto a = storage::Battery::li_ion("a", AmpHours{0.1}, 0.8);
  auto b = storage::Battery::li_ion("b", AmpHours{0.1}, 0.8);
  b.set_leakage_multiplier(50.0);
  for (int i = 0; i < 100; ++i) {
    a.apply_leakage(Seconds{3600.0});
    b.apply_leakage(Seconds{3600.0});
  }
  EXPECT_LT(b.stored_energy().value(), a.stored_energy().value());
  EXPECT_DOUBLE_EQ(b.leakage_multiplier(), 50.0);
}

TEST(StorageFaults, SupercapFadeAndLeakageSpike) {
  storage::Supercapacitor::Params p;
  p.main_capacitance = Farads{10.0};
  p.slow_capacitance = Farads{0.0};
  p.initial_voltage = Volts{4.0};
  storage::Supercapacitor healthy("h", p);
  storage::Supercapacitor faded("f", p);
  faded.inject_capacity_fade(0.3);
  EXPECT_LT(faded.capacity().value(), healthy.capacity().value());

  storage::Supercapacitor leaky("l", p);
  leaky.set_leakage_multiplier(100.0);
  healthy.apply_leakage(Seconds{3600.0});
  leaky.apply_leakage(Seconds{3600.0});
  EXPECT_LT(leaky.stored_energy().value(), healthy.stored_energy().value());
}

TEST(StorageFaults, FuelCellSealVentLosesReserve) {
  storage::FuelCell cell("fc", storage::FuelCell::Params{});
  const double before = cell.stored_energy().value();
  cell.inject_capacity_fade(0.5);
  EXPECT_NEAR(cell.stored_energy().value(), 0.5 * before, 1e-9);
}

// ---------------------------------------------------------------------------
// I2C bus fault hooks
// ---------------------------------------------------------------------------

class BusFaultFixture : public ::testing::Test {
 protected:
  BusFaultFixture() {
    bus::ElectronicDatasheet ds;
    ds.device_class = bus::DeviceClass::kStorage;
    ds.model = "SC";
    ds.storage_kind = storage::StorageKind::kSupercapacitor;
    ds.capacity = Joules{80.0};
    ds.max_voltage = Volts{5.0};
    bus::ModulePort::Telemetry t;
    t.stored_energy = [] { return Joules{40.0}; };
    port_ = std::make_unique<bus::ModulePort>(0x10, ds, std::move(t));
    bus_.attach(*port_);
  }

  bus::I2cBus bus_;
  std::unique_ptr<bus::ModulePort> port_;
};

TEST_F(BusFaultFixture, NakBurstKillsExactlyN) {
  bus_.inject_nak_burst(3);
  for (int i = 0; i < 3; ++i)
    EXPECT_FALSE(bus::read_live_u32(bus_, 0x10, bus::ModulePort::kRegEnergyMj));
  EXPECT_TRUE(bus::read_live_u32(bus_, 0x10, bus::ModulePort::kRegEnergyMj));
  EXPECT_EQ(bus_.fault_hits(), 3u);
}

TEST_F(BusFaultFixture, BitErrorsBreakDatasheetCrc) {
  EXPECT_TRUE(bus::read_datasheet(bus_, 0x10));
  bus_.set_bit_error_rate(1.0);  // every payload byte corrupted
  EXPECT_FALSE(bus::read_datasheet(bus_, 0x10));
  EXPECT_GT(bus_.fault_hits(), 0u);
  bus_.set_bit_error_rate(0.0);
  EXPECT_TRUE(bus::read_datasheet(bus_, 0x10));
}

TEST_F(BusFaultFixture, StuckBusNaksEverythingUntilReleased) {
  bus_.set_stuck(true);
  EXPECT_FALSE(bus::read_live_u32(bus_, 0x10, bus::ModulePort::kRegEnergyMj));
  EXPECT_FALSE(bus_.write(0x10, bus::ModulePort::kRegControl, {1}));
  EXPECT_TRUE(bus_.scan().empty());
  bus_.set_stuck(false);
  EXPECT_TRUE(bus::read_live_u32(bus_, 0x10, bus::ModulePort::kRegEnergyMj));
  EXPECT_EQ(bus_.scan().size(), 1u);
}

TEST_F(BusFaultFixture, FaultFreeBusUnaffectedByRngPlumbing) {
  // With no fault armed, transactions are byte-for-byte clean.
  const auto a = bus::read_datasheet(bus_, 0x10);
  ASSERT_TRUE(a);
  EXPECT_EQ(a->model, "SC");
  EXPECT_EQ(bus_.fault_hits(), 0u);
}

// ---------------------------------------------------------------------------
// DigitalBusMonitor retry ladder
// ---------------------------------------------------------------------------

/// One DigitalBusMonitor::estimate() call and its retry-counter deltas.
struct Poll {
  manager::EnergyEstimate estimate;
  std::uint64_t attempts;
  std::uint64_t retries;
  std::uint64_t give_ups;
};

Poll poll_once(manager::DigitalBusMonitor& monitor) {
  const std::uint64_t attempts = monitor.attempts();
  const std::uint64_t retries = monitor.retries();
  const std::uint64_t give_ups = monitor.give_ups();
  const manager::EnergyEstimate e = monitor.estimate();
  return Poll{e, monitor.attempts() - attempts, monitor.retries() - retries,
              monitor.give_ups() - give_ups};
}

TEST_F(BusFaultFixture, MonitorRetryRidesThroughNakBurst) {
  manager::DigitalBusMonitor monitor(bus_, {0x10});
  // Clean bus: one attempt for the one polled module, no retries.
  const Poll clean = poll_once(monitor);
  EXPECT_EQ(clean.attempts, 1u);
  EXPECT_EQ(clean.retries, 0u);
  EXPECT_EQ(clean.give_ups, 0u);
  // Two NAKs: the first two attempts fail, the third and last succeeds.
  bus_.inject_nak_burst(2);
  const Poll retried = poll_once(monitor);
  EXPECT_EQ(retried.attempts, 3u);
  EXPECT_EQ(retried.retries, 2u);
  EXPECT_EQ(retried.give_ups, 0u);
  EXPECT_TRUE(retried.estimate.valid);
  EXPECT_NEAR(retried.estimate.stored.value(), 40.0, 1e-3);
}

TEST_F(BusFaultFixture, MonitorGivesUpOnStuckBusWithoutThrowing) {
  manager::DigitalBusMonitor monitor(bus_, {0x10});
  bus_.set_stuck(true);
  // Runtime anomaly, not an exception: every try fails, then one give-up.
  const Poll stuck = poll_once(monitor);
  EXPECT_EQ(stuck.attempts, 3u);
  EXPECT_EQ(stuck.retries, 2u);
  EXPECT_EQ(stuck.give_ups, 1u);
  EXPECT_TRUE(stuck.estimate.valid);
  // Poll abandoned -> unknown reads 0.
  EXPECT_DOUBLE_EQ(stuck.estimate.stored.value(), 0.0);
}

// ---------------------------------------------------------------------------
// FailoverPolicy
// ---------------------------------------------------------------------------

TEST(FailoverPolicy, DebouncesOutagesShorterThanDeadTime) {
  manager::FailoverPolicy::Params p;
  p.dead_time = Seconds{600.0};
  manager::FailoverPolicy policy(p);
  storage::FuelCell cell("fc", storage::FuelCell::Params{});
  // 5 minutes of darkness: a cloud, not a fault.
  policy.update(Seconds{0.0}, Watts{0.0}, 0.8, cell);
  policy.update(Seconds{300.0}, Watts{0.0}, 0.8, cell);
  EXPECT_FALSE(cell.enabled());
  EXPECT_FALSE(policy.primary_down());
  // Past the dead time: failover.
  policy.update(Seconds{700.0}, Watts{0.0}, 0.8, cell);
  EXPECT_TRUE(cell.enabled());
  EXPECT_TRUE(policy.primary_down());
  EXPECT_EQ(policy.failovers(), 1u);
}

TEST(FailoverPolicy, FailsBackOnlyAfterSustainedRecoveryAndSoc) {
  manager::FailoverPolicy::Params p;
  p.dead_time = Seconds{600.0};
  p.recovery_time = Seconds{1800.0};
  manager::FailoverPolicy policy(p);
  storage::FuelCell cell("fc", storage::FuelCell::Params{});
  policy.update(Seconds{0.0}, Watts{0.0}, 0.8, cell);
  policy.update(Seconds{700.0}, Watts{0.0}, 0.8, cell);
  ASSERT_TRUE(cell.enabled());
  // Primary returns, but not for long enough yet.
  policy.update(Seconds{800.0}, Watts{1e-3}, 0.8, cell);
  policy.update(Seconds{1000.0}, Watts{1e-3}, 0.8, cell);
  EXPECT_TRUE(cell.enabled());
  // Sustained recovery but depleted buffer: still no failback.
  policy.update(Seconds{3000.0}, Watts{1e-3}, 0.3, cell);
  EXPECT_TRUE(cell.enabled());
  // Recovery plus recovered buffer: switch out.
  policy.update(Seconds{3100.0}, Watts{1e-3}, 0.8, cell);
  EXPECT_FALSE(cell.enabled());
  EXPECT_EQ(policy.failbacks(), 1u);
}

TEST(FailoverPolicy, LowSocTriggersEvenWithHealthyPrimaries) {
  manager::FailoverPolicy policy;
  storage::FuelCell cell("fc", storage::FuelCell::Params{});
  policy.update(Seconds{0.0}, Watts{1e-3}, 0.1, cell);
  EXPECT_TRUE(cell.enabled());
  EXPECT_FALSE(policy.primary_down());
}

// ---------------------------------------------------------------------------
// FaultInjector scheduling
// ---------------------------------------------------------------------------

TEST(FaultInjector, FiresAtScheduledTimesInOrder) {
  auto chain = pv_chain();
  auto inj = schedule_rows("5,harvester_degrade,input:0,0.5,,,\n"
                           "10,harvester_heal,input:0,,,,\n")
                 .build_injector(kSeed, chain_targets(*chain));
  EventQueue events;
  inj->arm(events);
  const env::AmbientConditions sun = sunny();
  std::vector<double> delivered;
  const auto step = [&](Seconds now, Seconds dt) {
    delivered.push_back(chain->step(sun, Volts{3.3}, now, dt).value());
  };
  run_steps(events, Seconds{0.0}, Seconds{1.0}, 15, step);
  // Steps 0-4 healthy, 5-9 degraded to half, 10+ healed. Delivered power is
  // not exactly halved (the tracker re-seats the MPP and the converter's
  // efficiency shifts with load), so bound it loosely around half.
  EXPECT_NEAR(delivered[4], delivered[0], 1e-9);
  EXPECT_GT(delivered[7], 0.35 * delivered[0]);
  EXPECT_LT(delivered[7], 0.65 * delivered[0]);
  EXPECT_NEAR(delivered[12], delivered[0], 0.05 * delivered[0]);
  EXPECT_EQ(inj->counters().harvester, 1u);  // the heal is not a fault
}

TEST(FaultInjector, WrapsEachChainOnce) {
  auto chain = pv_chain();
  auto inj = schedule_rows("1,harvester_degrade,input:0,0.5,,,\n"
                           "2,harvester_stuck_short,input:0,,,,\n")
                 .build_injector(kSeed, chain_targets(*chain));
  auto& wrapper = dynamic_cast<FaultyHarvester&>(chain->harvester());
  // Both rows share one wrapper around the bare transducer...
  EXPECT_EQ(dynamic_cast<FaultyHarvester*>(&wrapper.inner()), nullptr);
  // ...and a second schedule on the same chain reuses it.
  auto again = schedule_rows("3,harvester_heal,input:0,,,,\n")
                   .build_injector(kSeed, chain_targets(*chain));
  EXPECT_EQ(&chain->harvester(), &wrapper);
}

TEST(FaultInjector, ScheduleFreezesOnArm) {
  auto chain = pv_chain();
  auto inj = schedule_rows("1,harvester_degrade,input:0,0.5,,,\n")
                 .build_injector(kSeed, chain_targets(*chain));
  EXPECT_FALSE(inj->armed());
  EventQueue events;
  inj->arm(events);
  EXPECT_TRUE(inj->armed());
  EventQueue other;
  EXPECT_THROW(inj->arm(other), SpecError);
}

TEST(FaultInjector, CountersTallyOnlyFiredFaults) {
  auto chain = pv_chain();
  storage::FuelCell cell("fc", storage::FuelCell::Params{});
  ScheduleTargets targets = chain_targets(*chain);
  targets.stores = {&cell};
  auto inj = schedule_rows("2,harvester_degrade,input:0,0.5,,,\n"
                           "100,storage_capacity_fade,storage:0,0.5,,,\n")
                 .build_injector(kSeed, targets);  // the fade: past the horizon
  EventQueue events;
  inj->arm(events);
  const auto step = [&](Seconds now, Seconds dt) {
    chain->step(sunny(), Volts{3.3}, now, dt);
  };
  run_steps(events, Seconds{0.0}, Seconds{1.0}, 10, step);
  EXPECT_EQ(inj->counters().harvester, 1u);
  EXPECT_EQ(inj->counters().storage, 0u);  // never fired
  EXPECT_EQ(inj->counters().total(), 1u);
}

// ---------------------------------------------------------------------------
// Sensor drift — the environment-layer fault skewing the MPPT's view
// ---------------------------------------------------------------------------

TEST(SensorDrift, SkewedViewMovesTheOperatingPoint) {
  auto honest = pv_chain("pv-honest");
  auto skewed = pv_chain("pv-skewed");
  skewed->set_sense_gain(1.5);
  // Let both trackers run a few MPPT updates under identical sun.
  for (int i = 0; i < 30; ++i) {
    step_once(*honest, i);
    step_once(*skewed, i);
  }
  // The skewed tracker optimized for 1.5x irradiance that is not there, so
  // it parks off the true maximum power point and delivers less.
  EXPECT_LT(step_once(*skewed, 31).value(), step_once(*honest, 31).value());
}

TEST(SensorDrift, UnityGainIsByteTransparent) {
  auto a = pv_chain("pv-a");
  auto b = pv_chain("pv-b");
  b->set_sense_gain(1.0);  // explicit unity: the no-drift fast path
  for (int i = 0; i < 30; ++i)
    EXPECT_EQ(step_once(*a, i).value(), step_once(*b, i).value());
}

TEST(SensorDrift, GainValidation) {
  auto chain = pv_chain();
  EXPECT_THROW(chain->set_sense_gain(0.0), SpecError);
  EXPECT_THROW(chain->set_sense_gain(-1.0), SpecError);
  EXPECT_THROW(chain->set_sense_gain(
                   std::numeric_limits<double>::infinity()),
               SpecError);
}

TEST(SensorDrift, InjectorAppliesAndAutoHeals) {
  auto chain = pv_chain();
  auto inj = schedule_rows("5,sensor_drift,input:0,1.3,10,,\n")
                 .build_injector(kSeed, chain_targets(*chain));
  EventQueue events;
  inj->arm(events);
  const auto step = [&](Seconds now, Seconds dt) {
    chain->step(sunny(), Volts{3.3}, now, dt);
  };
  const Seconds dt{1.0};
  Seconds now = run_steps(events, Seconds{0.0}, dt, 4, step);
  EXPECT_DOUBLE_EQ(chain->sense_gain(), 1.0);
  now = run_steps(events, now, dt, 6, step);
  EXPECT_DOUBLE_EQ(chain->sense_gain(), 1.3);
  run_steps(events, now, dt, 10, step);  // drift window over: gain self-heals
  EXPECT_DOUBLE_EQ(chain->sense_gain(), 1.0);
  // One environment fault; the scheduled self-heal is repair, not a fault.
  EXPECT_EQ(inj->counters().environment, 1u);
  EXPECT_EQ(inj->counters().total(), 1u);
}

// ---------------------------------------------------------------------------
// Node faults — flash wear and radio PA degradation
// ---------------------------------------------------------------------------

node::SensorNode wearable_node() {
  node::WorkloadParams w;
  w.task_period = Seconds{30.0};
  return node::SensorNode("n", node::McuParams{}, node::RadioParams{}, w);
}

TEST(NodeFaults, FlashWearRaisesCycleEnergy) {
  auto healthy = wearable_node();
  auto worn = wearable_node();
  worn.inject_flash_wear(2.0);
  EXPECT_GT(worn.average_power(Volts{3.0}).value(),
            healthy.average_power(Volts{3.0}).value());
  EXPECT_DOUBLE_EQ(worn.flash_wear_factor(), 2.0);
  // Wear is cumulative: a second aging event multiplies on top.
  worn.inject_flash_wear(1.5);
  EXPECT_DOUBLE_EQ(worn.flash_wear_factor(), 3.0);
}

TEST(NodeFaults, RadioPaDegradationRaisesTxCost) {
  auto healthy = wearable_node();
  auto degraded = wearable_node();
  degraded.inject_radio_pa_degradation(1.5);
  EXPECT_GT(degraded.average_power(Volts{3.0}).value(),
            healthy.average_power(Volts{3.0}).value());
  EXPECT_DOUBLE_EQ(degraded.radio_pa_factor(), 1.5);
}

TEST(NodeFaults, RejectImprovingFactors) {
  auto n = wearable_node();
  EXPECT_THROW(n.inject_flash_wear(0.9), SpecError);
  EXPECT_THROW(n.inject_radio_pa_degradation(0.5), SpecError);
}

TEST(NodeFaults, InjectorCountsNodeBucket) {
  auto n = wearable_node();
  ScheduleTargets targets;
  targets.node = &n;
  auto inj = schedule_rows("2,node_flash_wear,node,2,,,\n"
                           "3,node_radio_pa_degrade,node,1.2,,,\n")
                 .build_injector(kSeed, targets);
  EventQueue events;
  inj->arm(events);
  run_steps(events, Seconds{0.0}, Seconds{1.0}, 5, [](Seconds, Seconds) {});
  EXPECT_EQ(inj->counters().node, 2u);
  EXPECT_EQ(inj->counters().total(), 2u);
  EXPECT_DOUBLE_EQ(n.flash_wear_factor(), 2.0);
  EXPECT_DOUBLE_EQ(n.radio_pa_factor(), 1.2);
}

// ---------------------------------------------------------------------------
// Acceptance: bit-identical replay of a seeded fault schedule
// ---------------------------------------------------------------------------

systems::RunResult faulted_system_a_run(std::uint64_t seed) {
  auto a = systems::build_system_a(seed);
  auto env = env::Environment::outdoor(seed);
  auto inj = schedule_rows("3600,harvester_intermittent,input:0,0.3,,,\n"
                           "7200,harvester_degrade,input:1,0.4,,,\n"
                           "10000,converter_thermal_shutdown,input:2,,2000,,\n"
                           "12000,storage_leakage_spike,storage:0,20,4000,,\n"
                           "14000,bus_nak_burst,bus,5,,,\n"
                           "15000,bus_bit_errors,bus,0.02,1000,,\n")
                 .build_injector(seed, a->fault_targets());
  systems::RunOptions o;
  o.dt = Seconds{5.0};
  o.management_period = Seconds{60.0};
  return systems::run_platform(*a, env, Seconds{6.0 * 3600.0}, o, inj.get());
}

TEST(FaultDeterminism, SeededScheduleReplaysByteForByte) {
  const auto r1 = faulted_system_a_run(kSeed);
  const auto r2 = faulted_system_a_run(kSeed);
  EXPECT_EQ(systems::to_string(r1), systems::to_string(r2));
  // The schedule did visibly fire (this is not a vacuous comparison).
  EXPECT_GT(r1.faults.injected.harvester, 0u);
  EXPECT_GT(r1.faults.injected.converter, 0u);
  EXPECT_GT(r1.faults.injected.storage, 0u);
  EXPECT_GT(r1.faults.injected.bus, 0u);
  EXPECT_GT(r1.faults.harvester_faulted_steps, 0u);
  EXPECT_GT(r1.faults.converter_shutdown_steps, 0u);
  EXPECT_GT(r1.faults.bus_fault_hits, 0u);
}

TEST(FaultDeterminism, DifferentSeedsDiverge) {
  const auto r1 = faulted_system_a_run(7);
  const auto r2 = faulted_system_a_run(8);
  EXPECT_NE(systems::to_string(r1), systems::to_string(r2));
}

// ---------------------------------------------------------------------------
// Acceptance: System A survives all ambient sources faulted, on failover
// ---------------------------------------------------------------------------

TEST(FailoverAcceptance, SystemAStaysAliveOnFuelCellWhenAmbientSourcesDie) {
  constexpr std::uint64_t seed = 123;
  auto a = systems::build_system_a(seed);
  const std::size_t fuel_cell_slot = 2;
  ASSERT_EQ(a->store(fuel_cell_slot).kind(), storage::StorageKind::kFuelCell);
  manager::FailoverPolicy::Params fp;
  fp.dead_time = Seconds{600.0};
  a->set_failover_policy(manager::FailoverPolicy(fp), fuel_cell_slot);

  auto env = env::Environment::outdoor(seed);
  // Both PV panels and the wind turbine: every ambient source dead at t=2h.
  auto inj = schedule_rows("7200,harvester_stuck_short,input:*,,,,\n")
                 .build_injector(seed, a->fault_targets());

  systems::RunOptions o;
  o.dt = Seconds{5.0};
  o.management_period = Seconds{60.0};
  const auto r = systems::run_platform(*a, env, Seconds{86400.0}, o, inj.get());

  EXPECT_EQ(r.faults.injected.harvester, 3u);
  EXPECT_GE(r.faults.failovers, 1u);
  // The backup actually carried the load: hydrogen was consumed...
  const auto& cell =
      dynamic_cast<const storage::FuelCell&>(a->store(fuel_cell_slot));
  EXPECT_GT(cell.depletion(), 0.0);
  // ...and the node stayed alive through the remaining 22 h of outage.
  EXPECT_GT(r.availability, 0.9);
  EXPECT_GT(r.packets, 0u);
}

TEST(FailoverAcceptance, WithoutFailoverTheSameOutageHurtsMore) {
  constexpr std::uint64_t seed = 123;
  auto run = [&](bool with_failover) {
    auto a = systems::build_system_a(seed);
    if (with_failover) {
      manager::FailoverPolicy::Params fp;
      fp.dead_time = Seconds{600.0};
      a->set_failover_policy(manager::FailoverPolicy(fp), 2);
    }
    auto env = env::Environment::outdoor(seed);
    auto inj = schedule_rows("7200,harvester_stuck_short,input:*,,,,\n")
                   .build_injector(seed, a->fault_targets());
    systems::RunOptions o;
    o.dt = Seconds{5.0};
    return systems::run_platform(*a, env, Seconds{86400.0}, o, inj.get());
  };
  const auto with = run(true);
  const auto without = run(false);
  // The plain SoC policy switches in later (buffer must first drain), so the
  // failover run can only do as well or better on energy served.
  EXPECT_GE(with.load.value() + 1e-9, without.load.value());
}

TEST(PlatformFailover, RejectsNonFuelCellBackupSlot) {
  auto a = systems::build_system_a(kSeed);
  EXPECT_THROW(a->set_failover_policy(manager::FailoverPolicy{}, 0), SpecError);
  EXPECT_THROW(a->set_failover_policy(manager::FailoverPolicy{}, 9), SpecError);
}

// ---------------------------------------------------------------------------
// Satellite: hot swap under fault (System B)
// ---------------------------------------------------------------------------

TEST(HotSwapUnderFault, DetachingModuleWhileHarvesterFaultedDegradesGracefully) {
  constexpr std::uint64_t seed = 55;
  auto b = systems::build_system_b(seed);
  auto env = env::Environment::indoor_industrial(seed);
  auto inj = schedule_rows("600,harvester_intermittent,input:0,0.6,,,\n")
                 .build_injector(seed, b->fault_targets());

  EventQueue events;
  events.every(Seconds{60.0}, [&](Seconds now) { b->management_tick(now); });
  inj->arm(events);
  // Mid-run, while input 0 is intermittently open, its module is unplugged
  // from the bus (port 0x10): the monitor must re-enumerate and carry on.
  events.at(Seconds{1800.0}, [&](Seconds) {
    b->i2c().detach(0x10);
    if (b->monitor() != nullptr) b->monitor()->notify_hardware_change();
  });
  bool books_sane = true;
  const auto step = [&](Seconds now, Seconds dt) {
    const auto c = env.advance(now, dt);
    b->step(c, now, dt);
    const double stored = b->total_stored().value();
    if (!std::isfinite(stored) || stored < 0.0) books_sane = false;
    for (std::size_t i = 0; i < b->storage_count(); ++i) {
      const double e = b->store(i).stored_energy().value();
      if (!std::isfinite(e) || e < -1e-9) books_sane = false;
    }
  };
  run_steps(events, Seconds{0.0}, Seconds{5.0}, 4 * 3600 / 5, step);

  EXPECT_TRUE(books_sane);
  // The monitor sees one fewer module; the platform keeps running.
  const auto* digital =
      dynamic_cast<const manager::DigitalBusMonitor*>(b->monitor());
  ASSERT_NE(digital, nullptr);
  EXPECT_EQ(digital->inventory().size(), 5u);  // was 6 sockets populated
  EXPECT_GT(b->harvested_energy().value(), 0.0);
  const auto& fh = dynamic_cast<const FaultyHarvester&>(b->input(0).harvester());
  EXPECT_GT(fh.faulted_steps(), 0u);
}

}  // namespace
}  // namespace msehsim::fault
