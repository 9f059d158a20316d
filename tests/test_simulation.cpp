// The simulation's timing contract: the event queue (core::EventQueue) and
// the one clock that drives it (systems::BatchRunner::run, reached here
// through run_platform).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "core/error.hpp"
#include "core/event_queue.hpp"
#include "core/random.hpp"
#include "env/environment.hpp"
#include "systems/platform.hpp"
#include "systems/runner.hpp"

namespace msehsim {
namespace {

/// Dispatches @p steps consecutive windows of @p dt starting at @p now, the
/// clock advanced as BatchRunner::run advances it; returns the next start.
Seconds dispatch_steps(EventQueue& q, Seconds now, Seconds dt, int steps) {
  for (int k = 0; k < steps; ++k) {
    q.dispatch(now, dt);
    now += dt;
  }
  return now;
}

/// A platform with nothing fitted: the run exercises only the clock.
std::unique_ptr<systems::Platform> bare_platform() {
  systems::PlatformSpec spec;
  spec.name = "bare";
  return std::make_unique<systems::Platform>(spec);
}

/// The step times of a run_platform run: its timeline sampled at cadence
/// dt has one row per step, at the step's start.
std::vector<double> step_starts(Seconds dt, Seconds duration) {
  auto platform = bare_platform();
  auto environment = env::Environment::office(1);
  systems::RunOptions options;
  options.dt = dt;
  options.timeline_dt = dt;
  const auto result =
      systems::run_platform(*platform, environment, duration, options);
  return result.timeline->time();
}

TEST(Simulation, RejectsNonPositiveDt) {
  auto platform = bare_platform();
  auto environment = env::Environment::office(1);
  for (const double dt : {0.0, -1.0}) {
    systems::RunOptions options;
    options.dt = Seconds{dt};
    EXPECT_THROW(
        systems::run_platform(*platform, environment, Seconds{10.0}, options),
        SpecError)
        << dt;
  }
}

TEST(Simulation, RunForAdvancesExactly) {
  const auto times = step_starts(Seconds{1.0}, Seconds{10.0});
  ASSERT_EQ(times.size(), 10u);
  EXPECT_EQ(times.front(), 0.0);
  EXPECT_EQ(times.back(), 9.0);
}

TEST(Simulation, FractionalDtAccumulatesWithoutExtraStep) {
  // 0.1 is not exact in binary: ten accumulated steps overshoot 1.0 by an
  // ulp, and the half-step tolerance keeps that from adding an eleventh.
  const auto times = step_starts(Seconds{0.1}, Seconds{1.0});
  ASSERT_EQ(times.size(), 10u);
  double t = 0.0;
  for (const double got : times) {
    EXPECT_EQ(got, t);  // the k-fold accumulated sum, bit for bit
    t += 0.1;
  }
}

TEST(Simulation, StepCallbacksRunInRegistrationOrder) {
  // Within one dispatch the periodics fire in registration order, then the
  // one-shots: the order BatchRunner's add_lane relies on to run the
  // timeline sample after the management tick of the same step.
  EventQueue q;
  std::vector<int> order;
  q.at(Seconds{0.0}, [&](Seconds) { order.push_back(3); });
  q.every(Seconds{10.0}, [&](Seconds) { order.push_back(1); });
  q.every(Seconds{10.0}, [&](Seconds) { order.push_back(2); });
  q.dispatch(Seconds{0.0}, Seconds{1.0});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, PeriodicFiresAtPeriod) {
  EventQueue q;
  std::vector<double> fired;
  q.every(Seconds{10.0}, [&](Seconds now) { fired.push_back(now.value()); });
  dispatch_steps(q, Seconds{0.0}, Seconds{1.0}, 35);
  EXPECT_EQ(fired, (std::vector<double>{0.0, 10.0, 20.0, 30.0}));
}

TEST(Simulation, PeriodFasterThanStepFiresEachStep) {
  // Sub-step periods fire multiple times per step (catch-up), preserving
  // the average rate.
  EventQueue q;
  int fired = 0;
  q.every(Seconds{0.25}, [&](Seconds) { ++fired; });
  dispatch_steps(q, Seconds{0.0}, Seconds{1.0}, 2);
  EXPECT_EQ(fired, 8);
}

TEST(Simulation, OneShotFiresOnce) {
  EventQueue q;
  int fired = 0;
  q.at(Seconds{5.0}, [&](Seconds) { ++fired; });
  dispatch_steps(q, Seconds{0.0}, Seconds{1.0}, 20);
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, OneShotInPastRejected) {
  EventQueue q;
  const Seconds next = dispatch_steps(q, Seconds{0.0}, Seconds{1.0}, 5);
  // The last dispatched window is [4, 5): earlier times are history.
  EXPECT_THROW(q.at(Seconds{2.0}, [](Seconds) {}), SpecError);
  EXPECT_THROW(q.at(Seconds{3.5}, [](Seconds) {}), SpecError);
  EXPECT_NO_THROW(q.at(next, [](Seconds) {}));
}

TEST(Simulation, OneShotsSameTimeFifo) {
  EventQueue q;
  std::vector<int> order;
  q.at(Seconds{3.0}, [&](Seconds) { order.push_back(1); });
  q.at(Seconds{3.0}, [&](Seconds) { order.push_back(2); });
  dispatch_steps(q, Seconds{0.0}, Seconds{1.0}, 5);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulation, EventMayScheduleFurtherEvents) {
  EventQueue q;
  int fired = 0;
  q.at(Seconds{2.0}, [&](Seconds now) {
    ++fired;
    q.at(now + Seconds{3.0}, [&](Seconds) { ++fired; });
  });
  dispatch_steps(q, Seconds{0.0}, Seconds{1.0}, 10);
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RunUntilIsIdempotentAtTarget) {
  // Dispatching a window consumes what was due in it: dispatching the same
  // window again fires nothing.
  EventQueue q;
  int fired = 0;
  q.every(Seconds{2.0}, [&](Seconds) { ++fired; });
  q.at(Seconds{4.5}, [&](Seconds) { ++fired; });
  q.dispatch(Seconds{4.0}, Seconds{1.0});
  EXPECT_EQ(fired, 4);  // periodic at 0, 2, 4, then the one-shot
  q.dispatch(Seconds{4.0}, Seconds{1.0});
  EXPECT_EQ(fired, 4);
}

TEST(Simulation, EventsSeeStepStartTime) {
  EventQueue q;
  double seen = -1.0;
  q.at(Seconds{3.5}, [&](Seconds t) { seen = t.value(); });
  dispatch_steps(q, Seconds{0.0}, Seconds{1.0}, 5);
  EXPECT_DOUBLE_EQ(seen, 3.0);  // fired at the start of the enclosing step
}

TEST(Simulation, OneShotAtNowFiresAtStartOfNextStep) {
  // The boundary case: scheduled between dispatches at the next window's
  // start, an event is not "in the past"; it fires in that window.
  EventQueue q;
  const Seconds next = dispatch_steps(q, Seconds{0.0}, Seconds{1.0}, 5);
  std::vector<double> fire_times;
  q.at(next, [&](Seconds t) { fire_times.push_back(t.value()); });
  dispatch_steps(q, next, Seconds{1.0}, 1);
  EXPECT_EQ(fire_times, (std::vector<double>{5.0}));
}

TEST(Simulation, EventChainedAtOwnFireTimeDrainsWithinTheStep) {
  // An event scheduling another at its own timestamp lands inside the same
  // window [now, now + dt) and fires in the same drain.
  EventQueue q;
  std::vector<double> fire_times;
  q.at(Seconds{2.0}, [&](Seconds now) {
    fire_times.push_back(now.value());
    q.at(now, [&](Seconds then) { fire_times.push_back(then.value()); });
  });
  q.dispatch(Seconds{2.0}, Seconds{1.0});
  EXPECT_EQ(fire_times, (std::vector<double>{2.0, 2.0}));
}

TEST(Simulation, NextScheduledIsTheExactPendingMinimum) {
  // BatchRunner skips a lane's dispatch while next_scheduled() >= now + dt.
  // That is sound iff next_scheduled() is exactly the earliest pending
  // event and a window ending at or before it fires nothing. Random
  // periodics, one-shots and step lengths, checked against a plain model
  // of the pending times.
  EventQueue q;
  Pcg32 rng(2026);
  std::vector<double> periodic_next;
  std::vector<double> periods;
  std::vector<double> one_shots;
  int fired = 0;
  int quiet = 0;  // windows that end at or before the earliest event
  double window_start = 0.0;
  double now = 0.0;
  for (int step = 0; step < 400; ++step) {
    if (rng.bernoulli(0.05)) {
      const double period = rng.uniform(0.3, 20.0);
      q.every(Seconds{period}, [&](Seconds) { ++fired; });
      periods.push_back(period);
      periodic_next.push_back(window_start);
    }
    if (rng.bernoulli(0.3)) {
      const double when = window_start + rng.uniform(0.0, 30.0);
      q.at(Seconds{when}, [&](Seconds) { ++fired; });
      one_shots.push_back(when);
    }
    double pending = std::numeric_limits<double>::infinity();
    for (const double t : periodic_next) pending = std::min(pending, t);
    for (const double t : one_shots) pending = std::min(pending, t);
    ASSERT_EQ(q.next_scheduled().value(), pending) << "step " << step;

    const double dt = rng.uniform(0.1, 3.0);
    const double horizon = now + dt;
    int due = 0;
    for (std::size_t i = 0; i < periods.size(); ++i)
      for (; periodic_next[i] < horizon; periodic_next[i] += periods[i]) ++due;
    due += static_cast<int>(std::erase_if(
        one_shots, [&](double t) { return t < horizon; }));
    if (pending >= horizon) ++quiet;

    const int before = fired;
    q.dispatch(Seconds{now}, Seconds{dt});
    ASSERT_EQ(fired - before, due) << "step " << step;
    window_start = now;
    now = horizon;
  }
  EXPECT_GT(fired, 100);
  EXPECT_GT(quiet, 50);
}

}  // namespace
}  // namespace msehsim
