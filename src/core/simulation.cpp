#include "core/simulation.hpp"

#include <limits>

#include "core/error.hpp"

namespace msehsim {

Simulation::Simulation(Seconds dt) : dt_(dt) {
  require_spec(dt.value() > 0.0, "Simulation dt must be > 0");
}

void Simulation::on_step(StepFn fn) { step_fns_.push_back(std::move(fn)); }

void Simulation::every(Seconds period, EventFn fn) {
  require_spec(period.value() > 0.0, "Periodic task period must be > 0");
  periodics_.push_back(Periodic{period, now_, std::move(fn)});
}

void Simulation::at(Seconds when, EventFn fn) {
  require_spec(when >= now_, "One-shot event scheduled in the past");
  one_shots_.push(OneShot{when, event_sequence_++, std::move(fn)});
}

void Simulation::dispatch_scheduled() {
  // Fire everything due within [now, now + dt). Events see time == now
  // because within a step all quantities are piecewise constant.
  const Seconds horizon = now_ + dt_;
  for (auto& p : periodics_) {
    while (p.next < horizon) {
      p.fn(now_);
      p.next += p.period;
    }
  }
  while (!one_shots_.empty() && one_shots_.top().when < horizon) {
    // Copy out before pop so the callback may schedule further events.
    EventFn fn = one_shots_.top().fn;
    one_shots_.pop();
    fn(now_);
  }
}

Seconds Simulation::next_scheduled() const {
  Seconds next{std::numeric_limits<double>::infinity()};
  for (const auto& p : periodics_)
    if (p.next < next) next = p.next;
  if (!one_shots_.empty() && one_shots_.top().when < next)
    next = one_shots_.top().when;
  return next;
}

void Simulation::step() {
  dispatch_scheduled();
  for (auto& fn : step_fns_) fn(now_, dt_);
  now_ += dt_;
  ++steps_;
}

void Simulation::run_for(Seconds duration) { run_until(now_ + duration); }

void Simulation::run_until(Seconds time) {
  // Half-step tolerance avoids an extra step from floating-point drift.
  while (now_ + dt_ * 0.5 < time) step();
}

}  // namespace msehsim
