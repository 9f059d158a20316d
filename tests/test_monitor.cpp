// Energy monitors: capability levels, assumed-model drift on hot-swap
// (the survey's Sec. III.2 claim C5), digital re-recognition.
#include <gtest/gtest.h>

#include <memory>

#include "bus/module_port.hpp"
#include "core/error.hpp"
#include "manager/monitor.hpp"
#include "storage/battery.hpp"
#include "storage/supercapacitor.hpp"
#include "systems/catalog.hpp"
#include "systems/platform.hpp"
#include "counting_new.hpp"

namespace msehsim::manager {
namespace {

using storage::Battery;
using storage::Supercapacitor;

Supercapacitor cap(double c_farads, double v0) {
  Supercapacitor::Params p;
  p.main_capacitance = Farads{c_farads};
  p.slow_capacitance = Farads{0.0};
  p.initial_voltage = Volts{v0};
  return Supercapacitor("sc", p);
}

bus::AdcLine::Params quiet_adc() {
  bus::AdcLine::Params p;
  p.bits = 12;
  p.full_scale = Volts{5.0};
  p.noise_lsb = 0.0;
  return p;
}

TEST(NullMonitor, BlindAndFree) {
  NullMonitor m;
  EXPECT_EQ(m.capability(), taxonomy::MonitoringCapability::kNone);
  EXPECT_FALSE(m.estimate().valid);
}

TEST(AnalogMonitor, EstimatesCapacitorEnergyFromVoltage) {
  auto sc = cap(10.0, 3.0);
  AnalogVoltageMonitor::AssumedDevice assumed;
  assumed.model = AnalogVoltageMonitor::AssumedDevice::Model::kCapacitor;
  assumed.capacitance = Farads{10.0};
  assumed.max_voltage = Volts{5.0};
  AnalogVoltageMonitor m([&sc] { return sc.voltage(); }, assumed, quiet_adc(), 1);
  const auto e = m.estimate();
  EXPECT_TRUE(e.valid);
  EXPECT_FALSE(e.incoming_known);
  EXPECT_NEAR(e.stored.value(), 0.5 * 10.0 * 9.0, 0.5);
  EXPECT_EQ(m.capability(), taxonomy::MonitoringCapability::kStoreVoltageOnly);
}

TEST(AnalogMonitor, StaleAssumptionAfterSilentSwap) {
  // Firmware assumes 10 F; hardware is silently replaced by 2 F at the same
  // voltage. The estimate is now 5x too high — claim C5.
  auto replacement = cap(2.0, 3.0);
  AnalogVoltageMonitor::AssumedDevice assumed;
  assumed.capacitance = Farads{10.0};
  assumed.max_voltage = Volts{5.0};
  AnalogVoltageMonitor m([&replacement] { return replacement.voltage(); },
                         assumed, quiet_adc(), 3);
  m.notify_hardware_change();  // analog monitors cannot re-recognize
  const auto e = m.estimate();
  const double actual = replacement.stored_energy().value();
  EXPECT_GT(e.stored.value(), 4.0 * actual);
}

TEST(AnalogMonitor, ExplicitReconfigureFixesAssumption) {
  auto sc = cap(2.0, 3.0);
  AnalogVoltageMonitor::AssumedDevice assumed;
  assumed.capacitance = Farads{10.0};
  AnalogVoltageMonitor m([&sc] { return sc.voltage(); }, assumed, quiet_adc(), 4);
  AnalogVoltageMonitor::AssumedDevice corrected;
  corrected.capacitance = Farads{2.0};
  m.reconfigure(corrected);
  const auto e = m.estimate();
  EXPECT_NEAR(e.stored.value(), sc.stored_energy().value(), 0.5);
}

TEST(AnalogMonitor, BatteryModelLinearInVoltage) {
  auto batt = Battery::li_ion("b", AmpHours{0.1}, 0.5);
  AnalogVoltageMonitor::AssumedDevice assumed;
  assumed.model = AnalogVoltageMonitor::AssumedDevice::Model::kBattery;
  assumed.capacity = batt.capacity();
  assumed.min_voltage = Volts{3.0};
  assumed.max_voltage = Volts{4.2};
  AnalogVoltageMonitor m([&batt] { return batt.voltage(); }, assumed,
                         quiet_adc(), 5);
  const auto e = m.estimate();
  EXPECT_TRUE(e.valid);
  EXPECT_GT(e.stored.value(), 0.0);
  EXPECT_LE(e.stored.value(), e.capacity.value());
}

TEST(ActivityMonitor, FlagsFollowProbes) {
  bool a = true;
  bool b = false;
  ActivityFlagMonitor m({[&] { return a; }, [&] { return b; }});
  auto e = m.estimate();
  EXPECT_FALSE(e.valid);  // flags cannot quantify energy
  ASSERT_EQ(m.flags().size(), 2u);
  EXPECT_TRUE(m.flags()[0]);
  EXPECT_FALSE(m.flags()[1]);
  b = true;
  m.estimate();
  EXPECT_TRUE(m.flags()[1]);
  EXPECT_EQ(m.capability(), taxonomy::MonitoringCapability::kActivityFlags);
}

class DigitalMonitorFixture : public ::testing::Test {
 protected:
  DigitalMonitorFixture()
      : cap_(cap(10.0, 3.0)) {
    bus::ElectronicDatasheet ds;
    ds.device_class = bus::DeviceClass::kStorage;
    ds.model = "SC10";
    ds.storage_kind = storage::StorageKind::kSupercapacitor;
    ds.capacity = cap_.capacity();
    ds.max_voltage = Volts{5.0};
    bus::ModulePort::Telemetry t;
    t.active = [this] { return cap_.soc() > 0.01; };
    t.stored_energy = [this] { return cap_.stored_energy(); };
    t.terminal_voltage = [this] { return cap_.voltage(); };
    port_ = std::make_unique<bus::ModulePort>(0x10, ds, std::move(t));
    bus_.attach(*port_);
  }

  Supercapacitor cap_;
  bus::I2cBus bus_;
  std::unique_ptr<bus::ModulePort> port_;
};

TEST_F(DigitalMonitorFixture, ReadsLiveEnergyOverBus) {
  DigitalBusMonitor m(bus_, {0x10});
  const auto e = m.estimate();
  EXPECT_TRUE(e.valid);
  EXPECT_NEAR(e.stored.value(), cap_.stored_energy().value(), 1.0);
  EXPECT_NEAR(e.capacity.value(), cap_.capacity().value(), 1e-6);
  EXPECT_EQ(m.capability(), taxonomy::MonitoringCapability::kFull);
}

TEST_F(DigitalMonitorFixture, EmptySocketsSimplySkipped) {
  DigitalBusMonitor m(bus_, {0x10, 0x11, 0x12});
  EXPECT_EQ(m.inventory().size(), 1u);
  const auto e = m.estimate();
  EXPECT_TRUE(e.valid);
}

TEST_F(DigitalMonitorFixture, HotSwapRecognizedAfterReenumeration) {
  DigitalBusMonitor m(bus_, {0x10});
  // Unplug the 10 F module, plug a 2 F module with its own datasheet.
  bus_.detach(0x10);
  auto small = cap(2.0, 3.0);
  bus::ElectronicDatasheet ds;
  ds.device_class = bus::DeviceClass::kStorage;
  ds.model = "SC2";
  ds.storage_kind = storage::StorageKind::kSupercapacitor;
  ds.capacity = small.capacity();
  ds.max_voltage = Volts{5.0};
  bus::ModulePort::Telemetry t;
  t.stored_energy = [&small] { return small.stored_energy(); };
  bus::ModulePort new_port(0x10, ds, std::move(t));
  bus_.attach(new_port);

  m.notify_hardware_change();  // the plug-and-play re-enumeration
  const auto e = m.estimate();
  EXPECT_NEAR(e.capacity.value(), small.capacity().value(), 1e-6);
  EXPECT_NEAR(e.stored.value(), small.stored_energy().value(), 1.0);
}

TEST(DigitalMonitor, SumsHarvesterOutputPowerAsIncoming) {
  // Harvester modules report their output power in whole microwatts; the
  // digital monitor's "full" capability includes that incoming power.
  bus::I2cBus bus;
  auto harvester = [](std::uint8_t address, const char* model, double watts) {
    bus::ElectronicDatasheet ds;
    ds.device_class = bus::DeviceClass::kHarvester;
    ds.model = model;
    bus::ModulePort::Telemetry t;
    t.output_power = [watts] { return Watts{watts}; };
    return std::make_unique<bus::ModulePort>(address, ds, std::move(t));
  };
  const double pv_watts = 0.0123456;
  const double teg_watts = 0.0007891;
  auto pv = harvester(0x20, "PV", pv_watts);
  auto teg = harvester(0x21, "TEG", teg_watts);
  bus.attach(*pv);
  bus.attach(*teg);

  DigitalBusMonitor m(bus, {0x20, 0x21});
  const auto e = m.estimate();
  EXPECT_TRUE(e.valid);
  EXPECT_TRUE(e.incoming_known);
  // Each register rounds to the nearest microwatt.
  EXPECT_NEAR(e.incoming.value(), pv_watts + teg_watts, 1e-6);
  EXPECT_DOUBLE_EQ(e.capacity.value(), 0.0);
}

TEST(DigitalMonitor, EstimateAllocatesNothing) {
  // System A's power-unit MCU polls every module once per management tick;
  // that poll (bus read, retry ladder, telemetry decode) must not touch the
  // heap, on the clean path or while retrying through a NAK burst.
  auto platform = systems::build_system_a(1);
  auto* monitor = dynamic_cast<DigitalBusMonitor*>(platform->monitor());
  ASSERT_NE(monitor, nullptr);
  ASSERT_FALSE(monitor->inventory().empty());
  monitor->estimate();  // warm: first-use memos and caches

  const std::size_t before = test_alloc::heap_allocations.load();
  const EnergyEstimate clean = monitor->estimate();
  platform->i2c().inject_nak_burst(2);
  const EnergyEstimate retried = monitor->estimate();
  const std::size_t after = test_alloc::heap_allocations.load();

  EXPECT_EQ(after - before, 0u);
  EXPECT_TRUE(clean.valid);
  EXPECT_GT(clean.capacity.value(), 0.0);
  EXPECT_GT(monitor->retries(), 0u);
  EXPECT_EQ(retried.stored.value(), clean.stored.value());
}

TEST(DigitalMonitor, RequiresSockets) {
  bus::I2cBus bus;
  EXPECT_THROW(DigitalBusMonitor(bus, {}), msehsim::SpecError);
}

}  // namespace
}  // namespace msehsim::manager
