// Smart energy-module bus endpoint.
//
// The register-map abstraction behind two surveyed designs:
//  - System B's plug-and-play modules: an EEPROM datasheet readable over a
//    digital interface (Sec. II.3).
//  - The Sec.-IV "smart harvester" proposal: every energy device carries a
//    low-power microprocessor exposing live telemetry through a *common*
//    interface.
//
// Register map (one byte each):
//   0x00..0x3F  electronic datasheet EEPROM image (64 bytes)
//   0x40        STATUS: bit0 = device active (producing / accepting energy)
//   0x41..0x44  live output power, microwatts, little-endian u32
//   0x45..0x48  live stored energy, millijoules, little-endian u32
//   0x49..0x4C  live terminal voltage, millivolts, little-endian u32
//   0x50        CONTROL: bit0 = enable (writable; e.g. fuel-cell switch-in)
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bus/datasheet.hpp"
#include "bus/i2c.hpp"

namespace msehsim::bus {

class ModulePort final : public I2cSlave {
 public:
  /// Live telemetry callbacks; unset callbacks read as zero.
  struct Telemetry {
    std::function<bool()> active;
    std::function<Watts()> output_power;
    std::function<Joules()> stored_energy;
    std::function<Volts()> terminal_voltage;
    std::function<void(bool)> set_enabled;
  };

  ModulePort(std::uint8_t address, const ElectronicDatasheet& datasheet,
             Telemetry telemetry);

  [[nodiscard]] std::uint8_t address() const override { return address_; }
  std::optional<std::uint8_t> read_register(std::uint8_t reg) override;
  /// Evaluates each live u32 field the burst touches once, not once per
  /// byte; every byte equals read_register's.
  std::size_t read_block(std::uint8_t start, std::uint8_t* out,
                         std::size_t count) override;
  bool write_register(std::uint8_t reg, std::uint8_t value) override;

  /// Register layout constants (shared with the manager-side driver).
  static constexpr std::uint8_t kRegDatasheet = 0x00;
  static constexpr std::uint8_t kRegStatus = 0x40;
  static constexpr std::uint8_t kRegPowerUw = 0x41;
  static constexpr std::uint8_t kRegEnergyMj = 0x45;
  static constexpr std::uint8_t kRegVoltageMv = 0x49;
  static constexpr std::uint8_t kRegControl = 0x50;

 private:
  [[nodiscard]] std::uint32_t live_u32(std::uint8_t base_reg) const;

  std::uint8_t address_;
  std::vector<std::uint8_t> eeprom_;
  Telemetry telemetry_;
  std::uint8_t control_{0};
};

/// Manager-side driver: reads a full datasheet over the bus.
/// nullopt if the address NAKs or the blob fails CRC.
std::optional<ElectronicDatasheet> read_datasheet(I2cBus& bus, std::uint8_t address);

/// Manager-side driver: reads one live u32 telemetry field (no allocation).
std::optional<std::uint32_t> read_live_u32(I2cBus& bus, std::uint8_t address,
                                           std::uint8_t base_reg);

}  // namespace msehsim::bus
