// Fixed-timestep simulation engine.
//
// msehsim uses quasi-static power-flow simulation: within one timestep every
// electrical quantity is treated as constant, and components exchange energy
// packets of (power x dt). The engine advances wall-clock time, invokes
// per-step callbacks in registration order (environment first, then power
// flow, then loads, then observers), and dispatches periodic tasks (MPPT
// updates, monitor polls) and one-shot events (hardware hot-swaps).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "core/units.hpp"

namespace msehsim {

/// Per-step callback: (current time, step length).
using StepFn = std::function<void(Seconds, Seconds)>;
/// Scheduled callback: (current time).
using EventFn = std::function<void(Seconds)>;

class Simulation {
 public:
  /// @p dt fixed step length; must be > 0.
  explicit Simulation(Seconds dt);

  [[nodiscard]] Seconds now() const { return now_; }
  [[nodiscard]] Seconds dt() const { return dt_; }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }

  /// Registers a per-step callback. Callbacks run in registration order,
  /// which defines the intra-step causality (environment -> power -> load).
  void on_step(StepFn fn);

  /// Runs @p fn every @p period of simulated time, first at now().
  /// Periodic tasks fire at the *start* of the step whose time they fall in.
  void every(Seconds period, EventFn fn);

  /// Runs @p fn once at simulated time @p when (start of enclosing step).
  ///
  /// Timing contract:
  ///  - @p when < now(): rejected with SpecError. The simulation never
  ///    rewrites history; schedule relative to now() instead.
  ///  - @p when == now(): not "in the past". Scheduled outside a step it
  ///    fires at the start of the next step, before that step's on_step
  ///    callbacks; scheduled from inside an event callback it drains within
  ///    the same step's dispatch. Events never interleave mid-step.
  ///  - Events landing in the same step fire in FIFO order of scheduling,
  ///    regardless of sub-step time differences — the tiebreak that keeps
  ///    seeded schedules (e.g. fault injection) reproducible.
  void at(Seconds when, EventFn fn);

  /// Advances the simulation by @p duration.
  void run_for(Seconds duration);

  /// Advances the simulation until now() >= @p time.
  void run_until(Seconds time);

  /// Executes exactly one step.
  void step();

  // ---- Event-engine interface (systems::BatchRunner) ----------------------
  // The batched lane kernel drives many platforms in lockstep with its own
  // inner loop, but each lane keeps a Simulation purely as its event engine
  // so periodic management ticks and one-shot fault injections fire with
  // exactly the semantics of step(). The kernel syncs the clock, dispatches
  // whatever is due, and does the per-step work itself.

  /// Fires every periodic and one-shot event due within [now(), now() + dt)
  /// — the dispatch half of step(), without the per-step callbacks and
  /// without advancing the clock.
  void dispatch_events() { dispatch_scheduled(); }

  /// Overwrites the clock. @p now must be the same k-fold accumulated sum
  /// of dt a step()-driven run would have reached, or scheduled events fire
  /// on a different step than they would under step().
  void sync_clock(Seconds now, std::uint64_t steps) {
    now_ = now;
    steps_ = steps;
  }

  /// Earliest pending event time (periodic or one-shot), or +infinity when
  /// nothing is scheduled. Lets a caller skip dispatch_events() entirely on
  /// steps where nothing can fire: an event is due iff
  /// next_scheduled() < now() + dt().
  [[nodiscard]] Seconds next_scheduled() const;

 private:
  struct Periodic {
    Seconds period;
    Seconds next;
    EventFn fn;
  };
  struct OneShot {
    Seconds when;
    std::uint64_t sequence;  // FIFO tiebreak for same-time events
    EventFn fn;
  };
  struct OneShotLater {
    bool operator()(const OneShot& a, const OneShot& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  void dispatch_scheduled();

  Seconds dt_;
  Seconds now_{0.0};
  std::uint64_t steps_{0};
  std::uint64_t event_sequence_{0};
  std::vector<StepFn> step_fns_;
  std::vector<Periodic> periodics_;
  std::priority_queue<OneShot, std::vector<OneShot>, OneShotLater> one_shots_;
};

}  // namespace msehsim
