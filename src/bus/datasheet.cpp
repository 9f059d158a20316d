#include "bus/datasheet.hpp"

#include <cstring>

namespace msehsim::bus {

namespace {
constexpr std::uint16_t kMagic = 0xE5D5;  // "Energy Sheet"
constexpr std::uint8_t kVersion = 1;

void put_u16(std::vector<std::uint8_t>& out, std::size_t at, std::uint16_t v) {
  out[at] = static_cast<std::uint8_t>(v & 0xFF);
  out[at + 1] = static_cast<std::uint8_t>(v >> 8);
}

std::uint16_t get_u16(const std::vector<std::uint8_t>& in, std::size_t at) {
  return static_cast<std::uint16_t>(in[at] | (in[at + 1] << 8));
}

void put_f64(std::vector<std::uint8_t>& out, std::size_t at, double v) {
  std::memcpy(out.data() + at, &v, sizeof v);
}

double get_f64(const std::vector<std::uint8_t>& in, std::size_t at) {
  double v = 0.0;
  std::memcpy(&v, in.data() + at, sizeof v);
  return v;
}

/// CRC-16/CCITT-FALSE over @p data — the checksum the datasheet blobs use.
std::uint16_t crc16_ccitt(const std::uint8_t* data, std::size_t n) {
  std::uint16_t crc = 0xFFFF;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= static_cast<std::uint16_t>(data[i]) << 8;
    for (int b = 0; b < 8; ++b)
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
  }
  return crc;
}
}  // namespace

std::string_view to_string(DeviceClass c) {
  switch (c) {
    case DeviceClass::kHarvester: return "harvester";
    case DeviceClass::kStorage: return "storage";
  }
  return "?";
}

// Layout (little-endian):
//   [0..1]   magic        [2] version   [3] device_class
//   [4]      harvester_kind             [5] storage_kind
//   [6..21]  model (15 chars + NUL)
//   [22..29] rated_power  [30..37] recommended_operating_voltage
//   [38..45] capacity     [46..53] min_voltage   [54..61] max_voltage
//   [62..63] CRC-16 over bytes [0..61]
std::vector<std::uint8_t> ElectronicDatasheet::encode() const {
  std::vector<std::uint8_t> out(kEncodedSize, 0);
  put_u16(out, 0, kMagic);
  out[2] = kVersion;
  out[3] = static_cast<std::uint8_t>(device_class);
  out[4] = static_cast<std::uint8_t>(harvester_kind);
  out[5] = static_cast<std::uint8_t>(storage_kind);
  const std::size_t len = std::min<std::size_t>(model.size(), 15);
  std::memcpy(out.data() + 6, model.data(), len);
  put_f64(out, 22, rated_power.value());
  put_f64(out, 30, recommended_operating_voltage.value());
  put_f64(out, 38, capacity.value());
  put_f64(out, 46, min_voltage.value());
  put_f64(out, 54, max_voltage.value());
  put_u16(out, 62, crc16_ccitt(out.data(), 62));
  return out;
}

std::optional<ElectronicDatasheet> ElectronicDatasheet::decode(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() != kEncodedSize) return std::nullopt;
  if (get_u16(bytes, 0) != kMagic) return std::nullopt;
  if (bytes[2] != kVersion) return std::nullopt;
  if (get_u16(bytes, 62) != crc16_ccitt(bytes.data(), 62)) return std::nullopt;
  if (bytes[3] != static_cast<std::uint8_t>(DeviceClass::kHarvester) &&
      bytes[3] != static_cast<std::uint8_t>(DeviceClass::kStorage))
    return std::nullopt;

  ElectronicDatasheet ds;
  ds.device_class = static_cast<DeviceClass>(bytes[3]);
  ds.harvester_kind = static_cast<harvest::HarvesterKind>(bytes[4]);
  ds.storage_kind = static_cast<storage::StorageKind>(bytes[5]);
  const char* text = reinterpret_cast<const char*>(bytes.data() + 6);
  ds.model.assign(text, strnlen(text, 15));
  ds.rated_power = Watts{get_f64(bytes, 22)};
  ds.recommended_operating_voltage = Volts{get_f64(bytes, 30)};
  ds.capacity = Joules{get_f64(bytes, 38)};
  ds.min_voltage = Volts{get_f64(bytes, 46)};
  ds.max_voltage = Volts{get_f64(bytes, 54)};
  return ds;
}

bool operator==(const ElectronicDatasheet& a, const ElectronicDatasheet& b) {
  return a.device_class == b.device_class && a.model == b.model &&
         a.harvester_kind == b.harvester_kind && a.storage_kind == b.storage_kind &&
         a.rated_power == b.rated_power &&
         a.recommended_operating_voltage == b.recommended_operating_voltage &&
         a.capacity == b.capacity && a.min_voltage == b.min_voltage &&
         a.max_voltage == b.max_voltage;
}

}  // namespace msehsim::bus
