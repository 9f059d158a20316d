#include "fault/schedule.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <utility>

#include "core/error.hpp"
#include "core/fmt.hpp"
#include "core/random.hpp"

namespace msehsim::fault {

namespace {

/// Which component a fault keyword acts on. kHarvester and kChain both take
/// an "input:N" / "input:*" token: a kHarvester fault acts on the chain's
/// transducer, wrapped once in a FaultyHarvester; a kChain fault on the
/// chain itself.
enum class TargetClass { kHarvester, kChain, kStorage, kBus, kNode };

/// Parameter contract of one fault keyword: `a` is the magnitude, `b` the
/// duration. kForbidden cells must be empty, kRequired cells must parse.
enum class Cell { kForbidden, kRequired, kOptional };

/// One resolved target; the keyword's target class says which pointer is set.
struct Target {
  power::InputChain* chain{nullptr};
  FaultyHarvester* harvester{nullptr};
  storage::StorageDevice* store{nullptr};
  bus::I2cBus* bus{nullptr};
  node::SensorNode* node{nullptr};
};

/// What one fault instance does to one resolved target: `fire` runs at the
/// instance's time and counts one fault in `counter` (null for a repair);
/// `release`, when set, ends the fault `b` seconds later and never counts.
struct Effect {
  std::function<void()> fire;
  std::uint64_t InjectionCounters::*counter{nullptr};
  std::function<void()> release{};
};

/// One fault keyword, defined once: target, cells, range check, effect.
struct KeywordSpec {
  std::string_view keyword;
  TargetClass target;
  Cell a;
  Cell b;
  /// Validates magnitude/duration ranges. It is the only gate before the
  /// component setters, so a bad value is diagnosed with its line number
  /// instead of deep inside build_injector. Empty-optional cells arrive as
  /// NaN.
  void (*check)(double a, double b);
  Effect (*effect)(const Target& target, double a, double b);
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
    {"harvester_degrade", TargetClass::kHarvester, Cell::kRequired,
     Cell::kForbidden, check_fraction_a,
     [](const Target& t, double a, double) -> Effect {
       return {[h = t.harvester, a] { h->degrade(a); },
               &InjectionCounters::harvester};
     }},
    {"harvester_intermittent", TargetClass::kHarvester, Cell::kRequired,
     Cell::kForbidden, check_fraction_a,
     [](const Target& t, double a, double) -> Effect {
       return {[h = t.harvester, a] { h->set_intermittent(a); },
               &InjectionCounters::harvester};
     }},
    {"harvester_stuck_short", TargetClass::kHarvester, Cell::kForbidden,
     Cell::kForbidden, check_none,
     [](const Target& t, double, double) -> Effect {
       return {[h = t.harvester] { h->stick_short(); },
               &InjectionCounters::harvester};
     }},
    // Healing is a repair, not a fault: it counts nothing.
    {"harvester_heal", TargetClass::kHarvester, Cell::kForbidden,
     Cell::kForbidden, check_none,
     [](const Target& t, double, double) -> Effect {
       return {[h = t.harvester] { h->heal(); }};
     }},
    {"converter_droop", TargetClass::kChain, Cell::kRequired, Cell::kForbidden,
     check_droop_a,
     [](const Target& t, double a, double) -> Effect {
       return {[c = t.chain, a] { c->set_efficiency_droop(a); },
               &InjectionCounters::converter};
     }},
    {"converter_thermal_shutdown", TargetClass::kChain, Cell::kForbidden,
     Cell::kRequired, check_duration_b,
     [](const Target& t, double, double) -> Effect {
       return {[c = t.chain] { c->set_thermal_shutdown(true); },
               &InjectionCounters::converter,
               [c = t.chain] { c->set_thermal_shutdown(false); }};
     }},
    {"storage_capacity_fade", TargetClass::kStorage, Cell::kRequired,
     Cell::kForbidden, check_fade_a,
     [](const Target& t, double a, double) -> Effect {
       return {[d = t.store, a] { d->inject_capacity_fade(a); },
               &InjectionCounters::storage};
     }},
    {"storage_leakage_spike", TargetClass::kStorage, Cell::kRequired,
     Cell::kRequired, check_spike_ab,
     [](const Target& t, double a, double) -> Effect {
       return {[d = t.store, a] { d->set_leakage_multiplier(a); },
               &InjectionCounters::storage,
               [d = t.store] { d->set_leakage_multiplier(1.0); }};
     }},
    {"bus_nak_burst", TargetClass::kBus, Cell::kRequired, Cell::kForbidden,
     check_nak_a,
     [](const Target& t, double a, double) -> Effect {
       return {[bus = t.bus, n = static_cast<std::uint32_t>(a)] {
                 bus->inject_nak_burst(n);
               },
               &InjectionCounters::bus};
     }},
    {"bus_bit_errors", TargetClass::kBus, Cell::kRequired, Cell::kRequired,
     check_bits_ab,
     [](const Target& t, double a, double) -> Effect {
       return {[bus = t.bus, a] { bus->set_bit_error_rate(a); },
               &InjectionCounters::bus,
               [bus = t.bus] { bus->set_bit_error_rate(0.0); }};
     }},
    {"bus_stuck", TargetClass::kBus, Cell::kForbidden, Cell::kRequired,
     check_duration_b,
     [](const Target& t, double, double) -> Effect {
       return {[bus = t.bus] { bus->set_stuck(true); }, &InjectionCounters::bus,
               [bus = t.bus] { bus->set_stuck(false); }};
     }},
    // Flash wear and PA aging are permanent: neither heals.
    {"node_flash_wear", TargetClass::kNode, Cell::kRequired, Cell::kForbidden,
     check_wear_a,
     [](const Target& t, double a, double) -> Effect {
       return {[n = t.node, a] { n->inject_flash_wear(a); },
               &InjectionCounters::node};
     }},
    {"node_radio_pa_degrade", TargetClass::kNode, Cell::kRequired,
     Cell::kForbidden, check_wear_a,
     [](const Target& t, double a, double) -> Effect {
       return {[n = t.node, a] { n->inject_radio_pa_degradation(a); },
               &InjectionCounters::node};
     }},
    // The tracker sees the ambient conditions scaled by `a`; the transducer
    // keeps the true curve. A gain of 1 is a recalibration, and so is the
    // self-clearing `b` seconds later (b > 0); neither counts.
    {"sensor_drift", TargetClass::kChain, Cell::kRequired, Cell::kOptional,
     check_drift_ab,
     [](const Target& t, double a, double b) -> Effect {
       Effect effect{[c = t.chain, a] { c->set_sense_gain(a); }};
       if (a == 1.0) return effect;
       effect.counter = &InjectionCounters::environment;
       if (b > 0.0) effect.release = [c = t.chain] { c->set_sense_gain(1.0); };
       return effect;
     }},
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
    case TargetClass::kHarvester:
    case TargetClass::kChain:
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

/// The components @p entry names on @p targets (a kHarvester target comes
/// back unwrapped, with only `chain` set).
std::vector<Target> resolve(const ScheduleEntry& entry, TargetClass target,
                            const ScheduleTargets& targets) {
  std::vector<Target> resolved;
  switch (target) {
    case TargetClass::kHarvester:
    case TargetClass::kChain: {
      const auto index = parse_input_target(entry.target);
      if (index.has_value()) {
        require_spec(*index < targets.inputs.size(),
                     "schedule targets " + entry.target +
                         " but the platform has " +
                         std::to_string(targets.inputs.size()) +
                         " input chains");
        resolved.push_back({.chain = targets.inputs[*index]});
      } else {
        require_spec(
            !targets.inputs.empty(),
            "schedule targets input:* but the platform has no input chains");
        for (auto* chain : targets.inputs) resolved.push_back({.chain = chain});
      }
      break;
    }
    case TargetClass::kStorage: {
      const std::size_t index = parse_storage_target(entry.target);
      require_spec(index < targets.stores.size(),
                   "schedule targets " + entry.target +
                       " but the platform has " +
                       std::to_string(targets.stores.size()) +
                       " storage slots");
      resolved.push_back({.store = targets.stores[index]});
      break;
    }
    case TargetClass::kBus:
      require_spec(targets.bus != nullptr,
                   "schedule targets the bus but the platform has none");
      resolved.push_back({.bus = targets.bus});
      break;
    case TargetClass::kNode:
      require_spec(targets.node != nullptr,
                   "schedule targets the node but the platform has none");
      resolved.push_back({.node = targets.node});
      break;
  }
  return resolved;
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
  std::unique_ptr<FaultInjector> injector(new FaultInjector(seed));
  auto& schedule = injector->schedule_;
  const std::uint64_t base = seed ^ stream_key("fault.schedule");
  for (std::size_t ordinal = 0; ordinal < entries_.size(); ++ordinal) {
    const ScheduleEntry& entry = entries_[ordinal];
    const KeywordSpec& spec = *find_keyword(entry.fault);  // validated by add()
    std::vector<Target> resolved = resolve(entry, spec.target, targets);
    if (spec.target == TargetClass::kHarvester)
      for (Target& t : resolved) t.harvester = &injector->ensure_faulty(*t.chain);
    // One independent stream per entry: inserting a row never perturbs the
    // draws of the rows around it.
    Pcg32 rng(base, static_cast<std::uint64_t>(ordinal));
    for (std::uint32_t i = 0; i < entry.count; ++i) {
      Seconds when = entry.when;
      if (entry.spread.value() > 0.0)
        when += Seconds{rng.next_double() * entry.spread.value()};
      for (const Target& t : resolved) {
        Effect effect = spec.effect(t, entry.a, entry.b);
        schedule.push_back({when, effect.counter, std::move(effect.fire)});
        if (effect.release)
          schedule.push_back(
              {when + Seconds{entry.b}, nullptr, std::move(effect.release)});
      }
    }
  }
  return injector;
}

}  // namespace msehsim::fault
