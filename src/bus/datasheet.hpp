// Electronic datasheets for plug-and-play energy modules.
//
// Survey Sec. II.3 (System B): "it has an electronic datasheet on each
// energy module which may be individually interrogated to determine their
// properties" — the mechanism that lets the one surveyed system stay
// energy-aware across hardware swaps. Encoded as a fixed-layout binary blob
// (TEDS-style) with magic, version, and CRC-16 so corrupted or foreign
// EEPROM content is rejected rather than misread.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/units.hpp"
#include "harvest/harvester.hpp"
#include "storage/storage.hpp"

namespace msehsim::bus {

enum class DeviceClass : std::uint8_t { kHarvester = 1, kStorage = 2 };

[[nodiscard]] std::string_view to_string(DeviceClass c);

/// Module self-description. One struct covers both classes; fields that do
/// not apply to a class are zero.
struct ElectronicDatasheet {
  DeviceClass device_class{DeviceClass::kHarvester};
  std::string model;  ///< up to 15 characters, truncated on encode

  // Harvester fields.
  harvest::HarvesterKind harvester_kind{harvest::HarvesterKind::kPhotovoltaic};
  Watts rated_power{0.0};
  Volts recommended_operating_voltage{0.0};

  // Storage fields.
  storage::StorageKind storage_kind{storage::StorageKind::kSupercapacitor};
  Joules capacity{0.0};
  Volts min_voltage{0.0};
  Volts max_voltage{0.0};

  /// Serializes to the wire/EEPROM format (fixed 64-byte layout).
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// Parses an EEPROM image; empty optional on bad magic/version/CRC.
  static std::optional<ElectronicDatasheet> decode(
      const std::vector<std::uint8_t>& bytes);

  /// Fixed encoded size.
  static constexpr std::size_t kEncodedSize = 64;

  friend bool operator==(const ElectronicDatasheet& a, const ElectronicDatasheet& b);
};

}  // namespace msehsim::bus
