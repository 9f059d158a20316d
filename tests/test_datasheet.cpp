// Electronic datasheets: encode/decode round trips, corruption rejection,
// module-port register map.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "bus/datasheet.hpp"
#include "bus/i2c.hpp"
#include "bus/module_port.hpp"

namespace msehsim::bus {
namespace {

ElectronicDatasheet pv_sheet() {
  ElectronicDatasheet ds;
  ds.device_class = DeviceClass::kHarvester;
  ds.model = "PNP-PV";
  ds.harvester_kind = harvest::HarvesterKind::kPhotovoltaic;
  ds.rated_power = Watts{1e-3};
  ds.recommended_operating_voltage = Volts{2.0};
  return ds;
}

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF), written here from the
/// standard so the blob's checksum is checked against an independent copy.
std::uint16_t reference_crc16(const std::uint8_t* data, std::size_t n) {
  std::uint16_t crc = 0xFFFF;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= static_cast<std::uint16_t>(data[i] << 8);
    for (int b = 0; b < 8; ++b)
      crc = static_cast<std::uint16_t>((crc & 0x8000) ? (crc << 1) ^ 0x1021
                                                      : crc << 1);
  }
  return crc;
}

ElectronicDatasheet cap_sheet() {
  ElectronicDatasheet ds;
  ds.device_class = DeviceClass::kStorage;
  ds.model = "SC-10F";
  ds.storage_kind = storage::StorageKind::kSupercapacitor;
  ds.capacity = Joules{125.0};
  ds.min_voltage = Volts{0.0};
  ds.max_voltage = Volts{5.0};
  return ds;
}

TEST(Datasheet, EncodeHasFixedSize) {
  EXPECT_EQ(pv_sheet().encode().size(), ElectronicDatasheet::kEncodedSize);
}

TEST(Datasheet, RoundTripHarvester) {
  const auto ds = pv_sheet();
  const auto decoded = ElectronicDatasheet::decode(ds.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(*decoded == ds);
}

TEST(Datasheet, RoundTripStorage) {
  const auto ds = cap_sheet();
  const auto decoded = ElectronicDatasheet::decode(ds.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->device_class, DeviceClass::kStorage);
  EXPECT_EQ(decoded->model, "SC-10F");
  EXPECT_DOUBLE_EQ(decoded->capacity.value(), 125.0);
  EXPECT_DOUBLE_EQ(decoded->max_voltage.value(), 5.0);
}

TEST(Datasheet, LongModelNameTruncatedTo15) {
  auto ds = pv_sheet();
  ds.model = "THIS-NAME-IS-FAR-TOO-LONG";
  const auto decoded = ElectronicDatasheet::decode(ds.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->model.size(), 15u);
  EXPECT_EQ(decoded->model, "THIS-NAME-IS-FA");
}

TEST(Datasheet, CorruptedByteRejectedByCrc) {
  auto bytes = pv_sheet().encode();
  bytes[25] ^= 0x01;
  EXPECT_FALSE(ElectronicDatasheet::decode(bytes).has_value());
}

TEST(Datasheet, BadMagicRejected) {
  auto bytes = pv_sheet().encode();
  bytes[0] = 0x00;
  EXPECT_FALSE(ElectronicDatasheet::decode(bytes).has_value());
}

TEST(Datasheet, WrongSizeRejected) {
  auto bytes = pv_sheet().encode();
  bytes.pop_back();
  EXPECT_FALSE(ElectronicDatasheet::decode(bytes).has_value());
  EXPECT_FALSE(ElectronicDatasheet::decode({}).has_value());
}

TEST(Datasheet, BadDeviceClassRejected) {
  auto bytes = pv_sheet().encode();
  bytes[3] = 99;
  // Fix up the CRC so only the class is invalid.
  const std::uint16_t crc = reference_crc16(bytes.data(), 62);
  bytes[62] = static_cast<std::uint8_t>(crc & 0xFF);
  bytes[63] = static_cast<std::uint8_t>(crc >> 8);
  EXPECT_FALSE(ElectronicDatasheet::decode(bytes).has_value());
}

TEST(Datasheet, CrcIsCcittFalseOverTheFirst62Bytes) {
  // CRC-16/CCITT-FALSE of "123456789" is 0x29B1 (the catalogued check value).
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  ASSERT_EQ(reference_crc16(check, sizeof check), 0x29B1);
  for (const auto& sheet : {pv_sheet(), cap_sheet()}) {
    const auto bytes = sheet.encode();
    const std::uint16_t crc = reference_crc16(bytes.data(), 62);
    EXPECT_EQ(bytes[62], crc & 0xFF);
    EXPECT_EQ(bytes[63], crc >> 8);
  }
}

TEST(ModulePort, ServesDatasheetOverBus) {
  I2cBus bus;
  ModulePort port(0x10, pv_sheet(), {});
  bus.attach(port);
  const auto ds = read_datasheet(bus, 0x10);
  ASSERT_TRUE(ds.has_value());
  EXPECT_TRUE(*ds == pv_sheet());
}

TEST(ModulePort, LiveTelemetryRegisters) {
  I2cBus bus;
  double power = 1.5e-3;
  double energy = 42.0;
  double voltage = 3.123;
  ModulePort::Telemetry t;
  t.active = [] { return true; };
  t.output_power = [&] { return Watts{power}; };
  t.stored_energy = [&] { return Joules{energy}; };
  t.terminal_voltage = [&] { return Volts{voltage}; };
  ModulePort port(0x11, cap_sheet(), std::move(t));
  bus.attach(port);

  const auto status = bus.read(0x11, ModulePort::kRegStatus, 1);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ((*status)[0], 1);

  EXPECT_EQ(read_live_u32(bus, 0x11, ModulePort::kRegPowerUw).value(), 1500u);
  EXPECT_EQ(read_live_u32(bus, 0x11, ModulePort::kRegEnergyMj).value(), 42000u);
  EXPECT_EQ(read_live_u32(bus, 0x11, ModulePort::kRegVoltageMv).value(), 3123u);

  // Telemetry is live: changing the source changes the registers.
  energy = 10.0;
  EXPECT_EQ(read_live_u32(bus, 0x11, ModulePort::kRegEnergyMj).value(), 10000u);
}

TEST(ModulePort, TelemetryFieldEvaluatesOnce) {
  // A u32 poll reads four registers of one field; the field's telemetry
  // callback runs once per poll, not once per byte.
  I2cBus bus;
  int power_calls = 0;
  int energy_calls = 0;
  int voltage_calls = 0;
  ModulePort::Telemetry t;
  t.output_power = [&] { ++power_calls; return Watts{2.5e-3}; };
  t.stored_energy = [&] { ++energy_calls; return Joules{7.0}; };
  t.terminal_voltage = [&] { ++voltage_calls; return Volts{3.3}; };
  ModulePort port(0x16, cap_sheet(), std::move(t));
  bus.attach(port);

  EXPECT_EQ(read_live_u32(bus, 0x16, ModulePort::kRegPowerUw).value(), 2500u);
  EXPECT_EQ(power_calls, 1);
  EXPECT_EQ(read_live_u32(bus, 0x16, ModulePort::kRegEnergyMj).value(), 7000u);
  EXPECT_EQ(energy_calls, 1);
  EXPECT_EQ(read_live_u32(bus, 0x16, ModulePort::kRegVoltageMv).value(), 3300u);
  EXPECT_EQ(voltage_calls, 1);

  // One burst across all three fields: one call each.
  ASSERT_TRUE(bus.read(0x16, ModulePort::kRegPowerUw, 12).has_value());
  EXPECT_EQ(power_calls, 2);
  EXPECT_EQ(energy_calls, 2);
  EXPECT_EQ(voltage_calls, 2);
}

TEST(ModulePort, UnsetTelemetryReadsZero) {
  I2cBus bus;
  ModulePort port(0x12, pv_sheet(), {});
  bus.attach(port);
  EXPECT_EQ(read_live_u32(bus, 0x12, ModulePort::kRegPowerUw).value(), 0u);
  const auto status = bus.read(0x12, ModulePort::kRegStatus, 1);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ((*status)[0], 0);
}

TEST(ModulePort, ControlRegisterInvokesCallback) {
  I2cBus bus;
  bool enabled = false;
  ModulePort::Telemetry t;
  t.set_enabled = [&](bool on) { enabled = on; };
  ModulePort port(0x13, cap_sheet(), std::move(t));
  bus.attach(port);
  EXPECT_TRUE(bus.write(0x13, ModulePort::kRegControl, {1}));
  EXPECT_TRUE(enabled);
  EXPECT_TRUE(bus.write(0x13, ModulePort::kRegControl, {0}));
  EXPECT_FALSE(enabled);
}

TEST(ModulePort, EepromIsReadOnly) {
  I2cBus bus;
  ModulePort port(0x14, pv_sheet(), {});
  bus.attach(port);
  EXPECT_FALSE(bus.write(0x14, 0x00, {0xFF}));
  // Datasheet still intact.
  const auto ds = read_datasheet(bus, 0x14);
  ASSERT_TRUE(ds.has_value());
  EXPECT_TRUE(*ds == pv_sheet());
}

TEST(ModulePort, UnknownRegisterNaks) {
  I2cBus bus;
  ModulePort port(0x15, pv_sheet(), {});
  bus.attach(port);
  EXPECT_FALSE(bus.read(0x15, 0x60, 1).has_value());
}

TEST(ReadDatasheet, AbsentModuleGivesNullopt) {
  I2cBus bus;
  EXPECT_FALSE(read_datasheet(bus, 0x77).has_value());
  EXPECT_FALSE(read_live_u32(bus, 0x77, ModulePort::kRegPowerUw).has_value());
}

}  // namespace
}  // namespace msehsim::bus
