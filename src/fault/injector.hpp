// Deterministic fault injection: the armed form of a fault::Schedule.
//
// The survey's systems exist to survive the droop or death of any single
// energy source: System A carries a hydrogen fuel-cell backup for when wind
// and PV both fail, and System B's hot-swappable modules imply devices
// appearing, disappearing, and misbehaving at runtime. Related simulators
// (the EnHANTs simulation system, the ns-3 energy framework) treat source
// outage and storage fade as declared scenario inputs; msehsim's declared
// form is the versioned fault::Schedule file, and Schedule::build_injector
// is the only way to build a FaultInjector. Consistent with core/error.hpp,
// every injected fault is *modelled behaviour*: it flows through the
// components' normal return paths and event counters, never through
// exceptions.
//
// A FaultInjector holds the expanded schedule: each entry names an absolute
// simulation time, the closure that applies the fault to its target, and the
// counter it bumps. arm() registers every entry on a run's EventQueue, so
// faults fire at the start of the step they fall in, with the same FIFO
// ordering guarantees as any other event, and a seeded schedule replayed
// over the same horizon produces bit-identical traces.
//
// The injector borrows references to the targeted chains, devices, and
// buses: every target (and the injector itself) must outlive the queue it
// is armed on. Counters tally faults that actually *fired*, so a schedule
// reaching past the end of the run reports only what the run experienced.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/event_queue.hpp"
#include "fault/faulty_harvester.hpp"
#include "power/chain.hpp"

namespace msehsim::fault {

class Schedule;

/// Faults actually fired by an injector, bucketed by layer. "Scheduled but
/// the run ended first" does not count, and neither do repairs (heals, a
/// unity sensor-drift gain) or the releases that end a timed fault;
/// replaying the same seed and schedule over the same horizon reproduces
/// these numbers exactly.
struct InjectionCounters {
  std::uint64_t harvester{0};
  std::uint64_t converter{0};
  std::uint64_t storage{0};
  std::uint64_t bus{0};
  std::uint64_t node{0};         ///< sensor-node faults (flash, radio PA)
  std::uint64_t environment{0};  ///< ambient-sensing faults (drift)

  [[nodiscard]] std::uint64_t total() const {
    return harvester + converter + storage + bus + node + environment;
  }
};

class FaultInjector {
 public:
  // Armed entries hold the injector's address.
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Registers the whole schedule on @p events. Call exactly once, before
  /// running; entries already in the queue's past are rejected with
  /// SpecError (EventQueue::at semantics).
  void arm(EventQueue& events);

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] std::size_t scheduled() const { return schedule_.size(); }

  /// Faults fired so far, by layer.
  [[nodiscard]] const InjectionCounters& counters() const { return counters_; }

 private:
  friend class Schedule;  // the one builder

  struct Entry {
    Seconds when;
    std::uint64_t InjectionCounters::*counter;  ///< null for repairs and releases
    std::function<void()> apply;
  };

  /// @p seed drives every stochastic fault mechanism (intermittent
  /// connections; per-chain streams are derived from the wrapped
  /// harvester's name).
  explicit FaultInjector(std::uint64_t seed) : seed_(seed) {}

  /// Wraps the chain's harvester in a FaultyHarvester decorator, once; the
  /// returned reference stays valid for the chain's life.
  FaultyHarvester& ensure_faulty(power::InputChain& chain);

  std::uint64_t seed_;
  std::vector<Entry> schedule_;
  InjectionCounters counters_;
  bool armed_{false};
};

}  // namespace msehsim::fault
