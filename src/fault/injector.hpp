// Deterministic fault-injection scheduler.
//
// A FaultInjector is a seed-reproducible fault schedule: each entry names an
// absolute simulation time, a fault kind, and a target component. arm()
// registers every entry on a run's EventQueue, so faults fire at the start
// of the step they fall in, with the same FIFO ordering guarantees as any
// other event, and a seeded schedule replayed over the same horizon
// produces bit-identical traces. Related simulators (the EnHANTs simulation
// system, the ns-3 energy framework) treat source outage and storage fade
// as first-class scenario inputs; this is msehsim's equivalent knob.
//
// The injector borrows references to the targeted chains, devices, and
// buses: every target (and the injector itself) must outlive the queue it
// is armed on. Counters tally faults that actually *fired*, so a schedule
// reaching past the end of the run reports only what the run experienced.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bus/i2c.hpp"
#include "core/event_queue.hpp"
#include "fault/fault.hpp"
#include "fault/faulty_harvester.hpp"
#include "node/sensor_node.hpp"
#include "power/chain.hpp"
#include "storage/storage.hpp"

namespace msehsim::fault {

class FaultInjector {
 public:
  /// @p seed drives every stochastic fault mechanism scheduled through this
  /// injector (intermittent connections; per-chain streams are derived from
  /// the wrapped harvester's name).
  explicit FaultInjector(std::uint64_t seed);

  // ---- Harvester faults ---------------------------------------------------
  // The chain's transducer is wrapped in a FaultyHarvester on first use
  // (idempotent); the returned reference stays valid for the chain's life.

  /// At @p when, scale the transducer output to @p output_fraction.
  FaultyHarvester& harvester_degrade(Seconds when, power::InputChain& chain,
                                     double output_fraction);
  /// At @p when, start dropping whole steps open with @p open_probability.
  FaultyHarvester& harvester_intermittent(Seconds when, power::InputChain& chain,
                                          double open_probability);
  /// At @p when, short the transducer until healed.
  FaultyHarvester& harvester_stuck_short(Seconds when, power::InputChain& chain);
  /// At @p when, clear any harvester fault on @p chain.
  FaultyHarvester& harvester_heal(Seconds when, power::InputChain& chain);

  // ---- Converter faults ---------------------------------------------------

  /// At @p when, scale the chain's converter output by @p factor (lasting).
  void converter_droop(Seconds when, power::InputChain& chain, double factor);
  /// At @p when, open the chain's power path for @p duration.
  void converter_thermal_shutdown(Seconds when, power::InputChain& chain,
                                  Seconds duration);

  // ---- Storage faults -----------------------------------------------------

  /// At @p when, permanently remove @p fraction of the device's capacity.
  void storage_capacity_fade(Seconds when, storage::StorageDevice& device,
                             double fraction);
  /// At @p when, multiply self-discharge by @p multiplier for @p duration.
  void storage_leakage_spike(Seconds when, storage::StorageDevice& device,
                             double multiplier, Seconds duration);

  // ---- Bus faults ---------------------------------------------------------

  /// At @p when, NAK the next @p transactions bus transactions.
  void bus_nak_burst(Seconds when, bus::I2cBus& bus, std::uint32_t transactions);
  /// At @p when, corrupt payload bytes with probability @p rate for
  /// @p duration.
  void bus_bit_errors(Seconds when, bus::I2cBus& bus, double rate,
                      Seconds duration);
  /// At @p when, hold the bus stuck for @p duration.
  void bus_stuck(Seconds when, bus::I2cBus& bus, Seconds duration);

  // ---- Sensor-node faults -------------------------------------------------

  /// At @p when, multiply the node's per-cycle sensing/logging energy by
  /// @p factor (>= 1, permanent — flash wear does not heal).
  void node_flash_wear(Seconds when, node::SensorNode& node, double factor);
  /// At @p when, multiply the node's TX current by @p factor (>= 1,
  /// permanent — PA aging does not heal).
  void node_radio_pa_degrade(Seconds when, node::SensorNode& node, double factor);

  // ---- Environment faults -------------------------------------------------

  /// At @p when, make @p chain's tracker see the ambient conditions scaled
  /// by @p gain (miscalibrated sensing front end); the transducer physics
  /// keeps the true curve. When @p duration > 0 the drift self-clears
  /// (gain back to 1) that much later; 0 means it lasts until healed by a
  /// later sensor_drift(..., 1.0) entry.
  void sensor_drift(Seconds when, power::InputChain& chain, double gain,
                    Seconds duration = Seconds{0.0});

  // ---- Driving ------------------------------------------------------------

  /// Registers the whole schedule on @p events. Call exactly once, before
  /// running; entries already in the queue's past are rejected with
  /// SpecError (EventQueue::at semantics).
  void arm(EventQueue& events);

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] std::size_t scheduled() const { return schedule_.size(); }

  /// Faults fired so far, by layer.
  [[nodiscard]] const InjectionCounters& counters() const { return counters_; }

 private:
  struct Entry {
    Seconds when;
    FaultKind kind;
    std::function<void()> apply;
  };

  /// Wraps the chain's harvester in a FaultyHarvester decorator, once.
  FaultyHarvester& ensure_faulty(power::InputChain& chain);
  void add(Seconds when, FaultKind kind, std::function<void()> apply);

  std::uint64_t seed_;
  std::vector<Entry> schedule_;
  InjectionCounters counters_;
  bool armed_{false};
};

}  // namespace msehsim::fault
