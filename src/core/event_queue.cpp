#include "core/event_queue.hpp"

#include <limits>

#include "core/error.hpp"

namespace msehsim {

void EventQueue::every(Seconds period, EventFn fn) {
  require_spec(period.value() > 0.0, "Periodic task period must be > 0");
  periodics_.push_back(Periodic{period, window_start_, std::move(fn)});
}

void EventQueue::at(Seconds when, EventFn fn) {
  require_spec(when >= window_start_, "One-shot event scheduled in the past");
  one_shots_.push(OneShot{when, event_sequence_++, std::move(fn)});
}

void EventQueue::dispatch(Seconds now, Seconds dt) {
  window_start_ = now;
  const Seconds horizon = now + dt;
  for (auto& p : periodics_) {
    while (p.next < horizon) {
      p.fn(now);
      p.next += p.period;
    }
  }
  while (!one_shots_.empty() && one_shots_.top().when < horizon) {
    // Copy out before pop so the callback may schedule further events.
    EventFn fn = one_shots_.top().fn;
    one_shots_.pop();
    fn(now);
  }
}

Seconds EventQueue::next_scheduled() const {
  Seconds next{std::numeric_limits<double>::infinity()};
  for (const auto& p : periodics_)
    if (p.next < next) next = p.next;
  if (!one_shots_.empty() && one_shots_.top().when < next)
    next = one_shots_.top().when;
  return next;
}

}  // namespace msehsim
