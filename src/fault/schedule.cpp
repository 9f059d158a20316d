#include "fault/schedule.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "core/error.hpp"
#include "core/fmt.hpp"
#include "core/random.hpp"

namespace msehsim::fault {

namespace {

/// Which component class a fault keyword targets.
enum class TargetClass { kInput, kStorage, kBus, kNode };

/// Parameter contract of one fault keyword: `a` is the magnitude, `b` the
/// duration. kForbidden cells must be empty, kRequired cells must parse.
enum class Cell { kForbidden, kRequired, kOptional };

struct KeywordSpec {
  std::string_view keyword;
  TargetClass target;
  Cell a;
  Cell b;
  /// Validates magnitude/duration ranges; mirrors the FaultInjector
  /// preconditions so a bad value is diagnosed with its line number instead
  /// of deep inside build_injector. Empty-optional cells arrive as NaN.
  void (*check)(double a, double b);
};

void check_fraction_a(double a, double) {
  require_spec(a >= 0.0 && a <= 1.0, "'a' must be in [0,1]");
}
void check_droop_a(double a, double) {
  require_spec(a > 0.0 && a <= 1.0, "'a' must be in (0,1]");
}
void check_none(double, double) {}
void check_duration_b(double, double b) {
  require_spec(b > 0.0, "'b' (duration) must be > 0");
}
void check_fade_a(double a, double) {
  require_spec(a >= 0.0 && a < 1.0, "'a' must be in [0,1)");
}
void check_spike_ab(double a, double b) {
  require_spec(a >= 1.0, "'a' (multiplier) must be >= 1");
  require_spec(b > 0.0, "'b' (duration) must be > 0");
}
void check_nak_a(double a, double) {
  require_spec(a >= 1.0 && a == std::floor(a) && a <= 4294967295.0,
               "'a' must be a whole transaction count >= 1");
}
void check_bits_ab(double a, double b) {
  require_spec(a > 0.0 && a <= 1.0, "'a' (rate) must be in (0,1]");
  require_spec(b > 0.0, "'b' (duration) must be > 0");
}
void check_wear_a(double a, double) {
  require_spec(a >= 1.0, "'a' (factor) must be >= 1");
}
void check_drift_ab(double a, double b) {
  require_spec(std::isfinite(a) && a > 0.0,
               "'a' (gain) must be finite and > 0");
  if (!std::isnan(b)) require_spec(b >= 0.0, "'b' (duration) must be >= 0");
}

constexpr KeywordSpec kKeywords[] = {
    {"harvester_degrade", TargetClass::kInput, Cell::kRequired,
     Cell::kForbidden, check_fraction_a},
    {"harvester_intermittent", TargetClass::kInput, Cell::kRequired,
     Cell::kForbidden, check_fraction_a},
    {"harvester_stuck_short", TargetClass::kInput, Cell::kForbidden,
     Cell::kForbidden, check_none},
    {"harvester_heal", TargetClass::kInput, Cell::kForbidden, Cell::kForbidden,
     check_none},
    {"converter_droop", TargetClass::kInput, Cell::kRequired, Cell::kForbidden,
     check_droop_a},
    {"converter_thermal_shutdown", TargetClass::kInput, Cell::kForbidden,
     Cell::kRequired, check_duration_b},
    {"storage_capacity_fade", TargetClass::kStorage, Cell::kRequired,
     Cell::kForbidden, check_fade_a},
    {"storage_leakage_spike", TargetClass::kStorage, Cell::kRequired,
     Cell::kRequired, check_spike_ab},
    {"bus_nak_burst", TargetClass::kBus, Cell::kRequired, Cell::kForbidden,
     check_nak_a},
    {"bus_bit_errors", TargetClass::kBus, Cell::kRequired, Cell::kRequired,
     check_bits_ab},
    {"bus_stuck", TargetClass::kBus, Cell::kForbidden, Cell::kRequired,
     check_duration_b},
    {"node_flash_wear", TargetClass::kNode, Cell::kRequired, Cell::kForbidden,
     check_wear_a},
    {"node_radio_pa_degrade", TargetClass::kNode, Cell::kRequired,
     Cell::kForbidden, check_wear_a},
    {"sensor_drift", TargetClass::kInput, Cell::kRequired, Cell::kOptional,
     check_drift_ab},
};

const KeywordSpec* find_keyword(std::string_view keyword) {
  for (const auto& spec : kKeywords)
    if (spec.keyword == keyword) return &spec;
  return nullptr;
}

[[nodiscard]] std::string_view trimmed(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r'))
    s.remove_prefix(1);
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

/// Target token for an input-class fault: "input:N" or the fan-out
/// "input:*". Returns the index, or nullopt for "*".
std::optional<std::size_t> parse_input_target(std::string_view target) {
  constexpr std::string_view prefix = "input:";
  require_spec(target.substr(0, prefix.size()) == prefix,
               "target must be 'input:N' or 'input:*'");
  const std::string_view rest = target.substr(prefix.size());
  if (rest == "*") return std::nullopt;
  std::size_t index = 0;
  const auto [ptr, ec] =
      std::from_chars(rest.data(), rest.data() + rest.size(), index);
  require_spec(ec == std::errc{} && ptr == rest.data() + rest.size() &&
                   !rest.empty(),
               "target must be 'input:N' or 'input:*'");
  return index;
}

std::size_t parse_storage_target(std::string_view target) {
  constexpr std::string_view prefix = "storage:";
  require_spec(target.substr(0, prefix.size()) == prefix,
               "target must be 'storage:N'");
  const std::string_view rest = target.substr(prefix.size());
  std::size_t index = 0;
  const auto [ptr, ec] =
      std::from_chars(rest.data(), rest.data() + rest.size(), index);
  require_spec(ec == std::errc{} && ptr == rest.data() + rest.size() &&
                   !rest.empty(),
               "target must be 'storage:N'");
  return index;
}

/// Full declarative validation of one entry — the single gate both parse()
/// and add() pass through.
void validate_entry(const ScheduleEntry& entry) {
  require_spec(std::isfinite(entry.when.value()) && entry.when.value() >= 0.0,
               "time_s must be finite and >= 0");
  const KeywordSpec* spec = find_keyword(entry.fault);
  require_spec(spec != nullptr, "unknown fault keyword '" + entry.fault + "'");
  switch (spec->target) {
    case TargetClass::kInput:
      parse_input_target(entry.target);
      break;
    case TargetClass::kStorage:
      parse_storage_target(entry.target);
      break;
    case TargetClass::kBus:
      require_spec(entry.target == "bus", "target must be 'bus'");
      break;
    case TargetClass::kNode:
      require_spec(entry.target == "node", "target must be 'node'");
      break;
  }
  const auto check_cell = [&](Cell contract, double value, const char* name) {
    if (contract == Cell::kForbidden)
      require_spec(std::isnan(value),
                   std::string("'") + name + "' must be empty for " +
                       entry.fault);
    else if (contract == Cell::kRequired)
      require_spec(!std::isnan(value),
                   std::string("'") + name + "' is required for " +
                       entry.fault);
  };
  check_cell(spec->a, entry.a, "a");
  check_cell(spec->b, entry.b, "b");
  spec->check(entry.a, entry.b);
  require_spec(entry.count >= 1, "count must be >= 1");
  require_spec(std::isfinite(entry.spread.value()) &&
                   entry.spread.value() >= 0.0,
               "spread_s must be finite and >= 0");
}

/// Registers one concrete instance of @p entry on @p injector.
void apply_entry(FaultInjector& injector, const ScheduleEntry& entry,
                 Seconds when, const ScheduleTargets& targets) {
  const KeywordSpec* spec = find_keyword(entry.fault);  // validated earlier
  std::vector<power::InputChain*> chains;
  if (spec->target == TargetClass::kInput) {
    const auto index = parse_input_target(entry.target);
    if (index.has_value()) {
      require_spec(*index < targets.inputs.size(),
                   "schedule targets " + entry.target + " but the platform has " +
                       std::to_string(targets.inputs.size()) + " input chains");
      chains.push_back(targets.inputs[*index]);
    } else {
      require_spec(!targets.inputs.empty(),
                   "schedule targets input:* but the platform has no input chains");
      chains = targets.inputs;
    }
  }

  if (entry.fault == "harvester_degrade") {
    for (auto* chain : chains) injector.harvester_degrade(when, *chain, entry.a);
  } else if (entry.fault == "harvester_intermittent") {
    for (auto* chain : chains)
      injector.harvester_intermittent(when, *chain, entry.a);
  } else if (entry.fault == "harvester_stuck_short") {
    for (auto* chain : chains) injector.harvester_stuck_short(when, *chain);
  } else if (entry.fault == "harvester_heal") {
    for (auto* chain : chains) injector.harvester_heal(when, *chain);
  } else if (entry.fault == "converter_droop") {
    for (auto* chain : chains) injector.converter_droop(when, *chain, entry.a);
  } else if (entry.fault == "converter_thermal_shutdown") {
    for (auto* chain : chains)
      injector.converter_thermal_shutdown(when, *chain, Seconds{entry.b});
  } else if (entry.fault == "sensor_drift") {
    const Seconds duration{std::isnan(entry.b) ? 0.0 : entry.b};
    for (auto* chain : chains)
      injector.sensor_drift(when, *chain, entry.a, duration);
  } else if (entry.fault == "storage_capacity_fade" ||
             entry.fault == "storage_leakage_spike") {
    const std::size_t index = parse_storage_target(entry.target);
    require_spec(index < targets.stores.size(),
                 "schedule targets " + entry.target + " but the platform has " +
                     std::to_string(targets.stores.size()) + " storage slots");
    storage::StorageDevice& device = *targets.stores[index];
    if (entry.fault == "storage_capacity_fade")
      injector.storage_capacity_fade(when, device, entry.a);
    else
      injector.storage_leakage_spike(when, device, entry.a, Seconds{entry.b});
  } else if (entry.fault == "bus_nak_burst" ||
             entry.fault == "bus_bit_errors" || entry.fault == "bus_stuck") {
    require_spec(targets.bus != nullptr,
                 "schedule targets the bus but the platform has none");
    if (entry.fault == "bus_nak_burst")
      injector.bus_nak_burst(when, *targets.bus,
                             static_cast<std::uint32_t>(entry.a));
    else if (entry.fault == "bus_bit_errors")
      injector.bus_bit_errors(when, *targets.bus, entry.a, Seconds{entry.b});
    else
      injector.bus_stuck(when, *targets.bus, Seconds{entry.b});
  } else if (entry.fault == "node_flash_wear" ||
             entry.fault == "node_radio_pa_degrade") {
    require_spec(targets.node != nullptr,
                 "schedule targets the node but the platform has none");
    if (entry.fault == "node_flash_wear")
      injector.node_flash_wear(when, *targets.node, entry.a);
    else
      injector.node_radio_pa_degrade(when, *targets.node, entry.a);
  }
}

}  // namespace

void Schedule::add(ScheduleEntry entry) {
  validate_entry(entry);
  entries_.push_back(std::move(entry));
}

Schedule Schedule::parse(std::string_view text, std::string_view origin) {
  Schedule schedule;
  enum class Expect { kMagic, kHeader, kRows } expect = Expect::kMagic;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  const auto fail = [&](const std::string& reason) -> void {
    throw SpecError(std::string(origin) + " line " + std::to_string(line_no) +
                    ": " + reason);
  };
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view raw =
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    const std::string_view line = trimmed(raw);
    if (line.empty() || line.front() == '#') continue;

    if (expect == Expect::kMagic) {
      if (line != kMagic)
        fail("expected header '" + std::string(kMagic) + "', got '" +
             std::string(line) + "'");
      expect = Expect::kHeader;
      continue;
    }
    if (expect == Expect::kHeader) {
      if (line != kHeader)
        fail("expected column header '" + std::string(kHeader) + "'");
      expect = Expect::kRows;
      continue;
    }

    // Data row: exactly 7 comma-separated cells. A locale-mangled "3,14"
    // grows the column count and is rejected here rather than truncated.
    std::vector<std::string_view> cells;
    std::size_t cell_pos = 0;
    while (true) {
      const std::size_t comma = line.find(',', cell_pos);
      cells.push_back(trimmed(line.substr(
          cell_pos,
          comma == std::string_view::npos ? std::string_view::npos
                                          : comma - cell_pos)));
      if (comma == std::string_view::npos) break;
      cell_pos = comma + 1;
    }
    if (cells.size() != 7)
      fail("expected 7 columns (time_s,fault,target,a,b,count,spread_s), got " +
           std::to_string(cells.size()));

    ScheduleEntry entry;
    const auto when = parse_double(cells[0]);
    if (!when.has_value()) fail("unparseable time_s '" + std::string(cells[0]) + "'");
    entry.when = Seconds{*when};
    entry.fault = std::string(cells[1]);
    entry.target = std::string(cells[2]);
    if (!cells[3].empty()) {
      const auto a = parse_double(cells[3]);
      if (!a.has_value()) fail("unparseable 'a' cell '" + std::string(cells[3]) + "'");
      entry.a = *a;
    }
    if (!cells[4].empty()) {
      const auto b = parse_double(cells[4]);
      if (!b.has_value()) fail("unparseable 'b' cell '" + std::string(cells[4]) + "'");
      entry.b = *b;
    }
    if (!cells[5].empty()) {
      std::uint32_t count = 0;
      const auto [ptr, ec] = std::from_chars(
          cells[5].data(), cells[5].data() + cells[5].size(), count);
      if (ec != std::errc{} || ptr != cells[5].data() + cells[5].size())
        fail("unparseable count '" + std::string(cells[5]) + "'");
      entry.count = count;
    }
    if (!cells[6].empty()) {
      const auto spread = parse_double(cells[6]);
      if (!spread.has_value())
        fail("unparseable spread_s '" + std::string(cells[6]) + "'");
      entry.spread = Seconds{*spread};
    }
    try {
      schedule.add(std::move(entry));
    } catch (const SpecError& e) {
      fail(e.what());
    }
  }
  if (expect == Expect::kMagic)
    throw SpecError(std::string(origin) +
                    ": empty schedule file (missing '" + std::string(kMagic) +
                    "' header)");
  if (expect == Expect::kHeader)
    throw SpecError(std::string(origin) + ": truncated schedule (missing '" +
                    std::string(kHeader) + "' line)");
  return schedule;
}

Schedule Schedule::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require_spec(in.good(), "cannot open fault schedule '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  require_spec(!in.bad(), "error reading fault schedule '" + path + "'");
  return parse(buffer.str(), path);
}

std::unique_ptr<FaultInjector> Schedule::build_injector(
    std::uint64_t seed, const ScheduleTargets& targets) const {
  auto injector = std::make_unique<FaultInjector>(seed);
  const std::uint64_t base = seed ^ stream_key("fault.schedule");
  for (std::size_t ordinal = 0; ordinal < entries_.size(); ++ordinal) {
    const ScheduleEntry& entry = entries_[ordinal];
    // One independent stream per entry: inserting a row never perturbs the
    // draws of the rows around it.
    Pcg32 rng(base, static_cast<std::uint64_t>(ordinal));
    for (std::uint32_t i = 0; i < entry.count; ++i) {
      Seconds when = entry.when;
      if (entry.spread.value() > 0.0)
        when += Seconds{rng.next_double() * entry.spread.value()};
      apply_entry(*injector, entry, when, targets);
    }
  }
  return injector;
}

}  // namespace msehsim::fault
