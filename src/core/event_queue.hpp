// Event queue of one simulated run.
//
// msehsim uses quasi-static power-flow simulation: within one timestep every
// electrical quantity is treated as constant, and components exchange energy
// packets of (power x dt). The one clock lives in systems::BatchRunner::run:
// it advances time as the k-fold accumulated sum of dt from zero and, at the
// start of every step window [now, now + dt), asks its queue to dispatch
// whatever is due there before the step's power flow runs. The queue holds
// periodic tasks (management ticks, timeline samples) and one-shot events
// (fault injections, the mid-run ledger probe).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "core/units.hpp"

namespace msehsim {

/// Scheduled callback: (start of the step window it fires in).
using EventFn = std::function<void(Seconds)>;

class EventQueue {
 public:
  /// Runs @p fn every @p period (> 0) of simulated time, first at the
  /// current window start (0 before any dispatch). A period shorter than
  /// the step fires several times in one window (catch-up), preserving the
  /// average rate.
  void every(Seconds period, EventFn fn);

  /// Runs @p fn once, in the window that contains @p when.
  ///
  /// Timing contract:
  ///  - @p when before the last dispatched window's start: rejected with
  ///    SpecError. The queue never rewrites history.
  ///  - An event scheduled between dispatches fires at the next dispatch
  ///    whose window reaches it; one scheduled from inside a callback at or
  ///    before the current window's end drains within the same dispatch.
  ///  - One-shots due in the same window fire in time order, and same-time
  ///    events in FIFO order of scheduling — the tiebreak that keeps seeded
  ///    schedules (e.g. fault injection) reproducible.
  void at(Seconds when, EventFn fn);

  /// Fires everything due within [@p now, @p now + @p dt): the periodics in
  /// registration order, then the one-shots in (time, FIFO) order. Every
  /// callback sees @p now, because within a step all quantities are
  /// piecewise constant.
  void dispatch(Seconds now, Seconds dt);

  /// Earliest pending event time (periodic or one-shot), or +infinity when
  /// nothing is scheduled. A window [now, now + dt) fires something iff
  /// next_scheduled() < now + dt, so a caller may skip dispatch otherwise.
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

  Seconds window_start_{0.0};
  std::uint64_t event_sequence_{0};
  std::vector<Periodic> periodics_;
  std::priority_queue<OneShot, std::vector<OneShot>, OneShotLater> one_shots_;
};

}  // namespace msehsim
