// Declarative fault campaigns: a versioned, seed-expandable schedule file.
//
// A Schedule is the declared form of a fault campaign and the only way to
// build a FaultInjector: a line-based CSV spec (versioned header, strict
// locale-safe parsing via core/fmt, '#' comments) naming when each fault
// fires, what it does, and which component it hits. Each fault keyword is
// defined once, in one table row (schedule.cpp): its target class, its cell
// contract, its range check, and its effect on one resolved target.
// Entries may be stochastic — a count and a spread window expand into N
// instances at seeded-uniform offsets — so one file describes a whole
// family of campaigns, and (file, seed) replays bit-identically.
// build_injector() compiles the schedule against a platform's injectable
// surface (systems::Platform::fault_targets()), so experiment binaries,
// tests and campaign::Campaign share schedule files and rows instead of
// code.
//
// Format (DESIGN.md §7):
//
//   # any comment
//   msehsim-fault-schedule v1
//   time_s,fault,target,a,b,count,spread_s
//   3600,harvester_degrade,input:0,0.35,,1,0
//   21600,bus_stuck,bus,,120,3,7200
//
// `a` is the fault's magnitude, `b` its duration in seconds (where the
// fault has one); empty cells mean "unset". `count` (default 1) instances
// are drawn uniformly over [time_s, time_s + spread_s). Malformed input of
// any kind — wrong header, wrong column count (a comma-locale "3,14" lands
// here), unparseable or out-of-range values — is rejected with a SpecError
// naming the line; nothing is silently truncated.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bus/i2c.hpp"
#include "core/units.hpp"
#include "fault/injector.hpp"
#include "node/sensor_node.hpp"
#include "power/chain.hpp"
#include "storage/storage.hpp"

namespace msehsim::fault {

/// One schedule row, still in declarative form (keyword + target token).
struct ScheduleEntry {
  Seconds when{0.0};
  std::string fault;    ///< keyword, e.g. "harvester_degrade"
  std::string target;   ///< "input:N", "input:*", "storage:N", "bus", "node"
  double a{std::numeric_limits<double>::quiet_NaN()};  ///< magnitude; NaN = unset
  double b{std::numeric_limits<double>::quiet_NaN()};  ///< duration (s); NaN = unset
  std::uint32_t count{1};
  Seconds spread{0.0};
};

/// The injectable surface a schedule compiles against. Borrowed pointers;
/// systems::Platform::fault_targets() fills one for a built platform.
struct ScheduleTargets {
  std::vector<power::InputChain*> inputs;
  std::vector<storage::StorageDevice*> stores;
  bus::I2cBus* bus{nullptr};
  node::SensorNode* node{nullptr};
};

class Schedule {
 public:
  Schedule() = default;

  /// Parses @p text (the full file contents). @p origin names the source in
  /// diagnostics ("<path> line N: ...").
  static Schedule parse(std::string_view text,
                        std::string_view origin = "<schedule>");

  /// Reads and parses @p path. Missing or unreadable files throw SpecError.
  static Schedule load(const std::string& path);

  /// Appends @p entry after full validation (unknown keyword, malformed
  /// target, missing/extra/out-of-range parameters all throw SpecError) —
  /// the programmatic construction path, guaranteed to accept exactly what
  /// parse() accepts.
  void add(ScheduleEntry entry);

  [[nodiscard]] const std::vector<ScheduleEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Compiles the schedule into a ready-to-arm injector. Stochastic entries
  /// expand with draws from Pcg32(seed ^ stream_key("fault.schedule"),
  /// stream = entry ordinal), so expansion depends only on (schedule, seed)
  /// — never on thread count or build order. Target indices out of range
  /// for @p targets (or a "node"/"bus" fault on a platform without one)
  /// throw SpecError. The returned injector borrows @p targets' components
  /// and must not outlive them.
  [[nodiscard]] std::unique_ptr<FaultInjector> build_injector(
      std::uint64_t seed, const ScheduleTargets& targets) const;

  /// The exact first significant line every v1 schedule file must carry.
  static constexpr std::string_view kMagic = "msehsim-fault-schedule v1";
  /// The exact column-header line that must follow it.
  static constexpr std::string_view kHeader =
      "time_s,fault,target,a,b,count,spread_s";

 private:
  std::vector<ScheduleEntry> entries_;
};

}  // namespace msehsim::fault
