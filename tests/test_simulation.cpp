// Simulation engine: step loop, periodic tasks, one-shot events.
#include <gtest/gtest.h>

#include <vector>

#include "core/error.hpp"
#include "core/simulation.hpp"

namespace msehsim {
namespace {

TEST(Simulation, RejectsNonPositiveDt) {
  EXPECT_THROW(Simulation(Seconds{0.0}), SpecError);
  EXPECT_THROW(Simulation(Seconds{-1.0}), SpecError);
}

TEST(Simulation, RunForAdvancesExactly) {
  Simulation sim(Seconds{1.0});
  sim.run_for(Seconds{10.0});
  EXPECT_EQ(sim.steps(), 10u);
  EXPECT_DOUBLE_EQ(sim.now().value(), 10.0);
}

TEST(Simulation, FractionalDtAccumulatesWithoutExtraStep) {
  Simulation sim(Seconds{0.1});
  sim.run_for(Seconds{1.0});
  EXPECT_EQ(sim.steps(), 10u);
}

TEST(Simulation, StepCallbacksRunInRegistrationOrder) {
  Simulation sim(Seconds{1.0});
  std::vector<int> order;
  sim.on_step([&](Seconds, Seconds) { order.push_back(1); });
  sim.on_step([&](Seconds, Seconds) { order.push_back(2); });
  sim.step();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Simulation, PeriodicFiresAtPeriod) {
  Simulation sim(Seconds{1.0});
  int fired = 0;
  sim.every(Seconds{10.0}, [&](Seconds) { ++fired; });
  sim.run_for(Seconds{35.0});
  EXPECT_EQ(fired, 4);  // t = 0, 10, 20, 30
}

TEST(Simulation, PeriodFasterThanStepFiresEachStep) {
  // Sub-step periods fire multiple times per step (catch-up), preserving
  // the average rate.
  Simulation sim(Seconds{1.0});
  int fired = 0;
  sim.every(Seconds{0.25}, [&](Seconds) { ++fired; });
  sim.run_for(Seconds{2.0});
  EXPECT_EQ(fired, 8);
}

TEST(Simulation, OneShotFiresOnce) {
  Simulation sim(Seconds{1.0});
  int fired = 0;
  sim.at(Seconds{5.0}, [&](Seconds) { ++fired; });
  sim.run_for(Seconds{20.0});
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, OneShotInPastRejected) {
  Simulation sim(Seconds{1.0});
  sim.run_for(Seconds{5.0});
  EXPECT_THROW(sim.at(Seconds{2.0}, [](Seconds) {}), SpecError);
}

TEST(Simulation, OneShotsSameTimeFifo) {
  Simulation sim(Seconds{1.0});
  std::vector<int> order;
  sim.at(Seconds{3.0}, [&](Seconds) { order.push_back(1); });
  sim.at(Seconds{3.0}, [&](Seconds) { order.push_back(2); });
  sim.run_for(Seconds{5.0});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Simulation, EventMayScheduleFurtherEvents) {
  Simulation sim(Seconds{1.0});
  int fired = 0;
  sim.at(Seconds{2.0}, [&](Seconds now) {
    ++fired;
    sim.at(now + Seconds{3.0}, [&](Seconds) { ++fired; });
  });
  sim.run_for(Seconds{10.0});
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RunUntilIsIdempotentAtTarget) {
  Simulation sim(Seconds{1.0});
  sim.run_until(Seconds{5.0});
  sim.run_until(Seconds{5.0});
  EXPECT_DOUBLE_EQ(sim.now().value(), 5.0);
}

TEST(Simulation, EventsSeeStepStartTime) {
  Simulation sim(Seconds{1.0});
  double seen = -1.0;
  sim.at(Seconds{3.5}, [&](Seconds t) { seen = t.value(); });
  sim.run_for(Seconds{5.0});
  EXPECT_DOUBLE_EQ(seen, 3.0);  // fired at the start of the enclosing step
}

TEST(Simulation, OneShotAtNowFiresAtStartOfNextStep) {
  // The documented boundary case: when == now() is not "in the past" — it
  // fires at the start of the next step, before that step's callbacks.
  Simulation sim(Seconds{1.0});
  sim.run_for(Seconds{5.0});
  std::vector<int> order;
  sim.at(sim.now(), [&](Seconds) { order.push_back(1); });
  sim.on_step([&](Seconds, Seconds) { order.push_back(2); });
  sim.run_for(Seconds{1.0});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // event first ...
  EXPECT_EQ(order[1], 2);  // ... then the step callback
}

TEST(Simulation, EventChainedAtOwnFireTimeDrainsWithinTheStep) {
  // An event scheduling another at its own timestamp lands inside the same
  // step's dispatch window [now, now + dt) and fires in the same drain.
  Simulation sim(Seconds{1.0});
  std::vector<double> fire_times;
  sim.at(Seconds{2.0}, [&](Seconds now) {
    fire_times.push_back(now.value());
    sim.at(now, [&](Seconds then) { fire_times.push_back(then.value()); });
  });
  sim.run_for(Seconds{5.0});
  ASSERT_EQ(fire_times.size(), 2u);
  EXPECT_DOUBLE_EQ(fire_times[0], 2.0);
  EXPECT_DOUBLE_EQ(fire_times[1], 2.0);
}

}  // namespace
}  // namespace msehsim
