#include "systems/batch_runner.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/random.hpp"
#include "core/simulation.hpp"
#include "core/stats.hpp"
#include "fault/faulty_harvester.hpp"
#include "obs/trace.hpp"

namespace msehsim::systems {

/// Per-lane state: the platform, its event engine and what the run
/// accumulates for its RunResult.
struct BatchRunner::Lane {
  Platform* platform{nullptr};
  double next_event_s{0.0};  ///< earliest pending event, refreshed on dispatch
  fault::FaultInjector* injector{nullptr};
  Simulation sim;
  RunningStats input_stats;
  Pcg32 query_rng;
  detail::MidRunProbe probe;
  detail::TimelineSampler sampler;
  Joules initial_stored{0.0};
  bool deliver_queries{false};

  explicit Lane(Seconds dt)
      : sim(dt), query_rng(kQuerySeed, stream_key("queries")) {}
};

BatchRunner::BatchRunner(env::EnvironmentModel& environment, Seconds duration,
                         RunOptions options)
    : environment_(&environment),
      duration_(duration),
      options_(options) {}

BatchRunner::BatchRunner(std::shared_ptr<const env::CompiledTrace> trace,
                         Seconds duration, RunOptions options)
    : owned_environment_(
          std::make_unique<env::CompiledEnvironment>(std::move(trace))),
      environment_(owned_environment_.get()),
      duration_(duration),
      options_(options) {
  require_spec(options_.dt.value() ==
                   owned_environment_->trace().dt().value(),
               "BatchRunner: options.dt does not match the compiled dt");
}

BatchRunner::~BatchRunner() { detach_pv_shares(); }

void BatchRunner::share_pv_curve(harvest::Harvester& h) {
  harvest::Harvester* inner = &h;
  while (auto* faulty = dynamic_cast<fault::FaultyHarvester*>(inner))
    inner = &faulty->inner();
  auto* panel = dynamic_cast<harvest::PvPanel*>(inner);
  if (panel == nullptr) return;
  auto it = std::find_if(pv_shares_.begin(), pv_shares_.end(),
                         [&](const auto& s) { return s.first == panel->params(); });
  if (it == pv_shares_.end())
    it = pv_shares_.emplace(pv_shares_.end(), panel->params(),
                            std::make_unique<harvest::PvCurveShare>());
  panel->set_curve_share(it->second.get());
  shared_panels_.push_back(panel);
}

void BatchRunner::detach_pv_shares() {
  for (harvest::PvPanel* panel : shared_panels_) panel->set_curve_share(nullptr);
  shared_panels_.clear();
}

std::size_t BatchRunner::add_lane(Platform& platform,
                                  fault::FaultInjector* injector) {
  require_spec(!ran_, "BatchRunner::add_lane after run()");
  auto lane = std::make_unique<Lane>(options_.dt);
  lane->platform = &platform;
  lane->injector = injector;
  lane->initial_stored = platform.total_stored();
  lane->deliver_queries = options_.mean_query_interval.value() > 0.0 &&
                          platform.node() != nullptr;

  // Event registrations in one fixed order, so periodics fire in the same
  // sequence within a dispatch and one-shots get the same FIFO sequence
  // numbers (the same-time tiebreak) in every lane: management periodic,
  // mid-run probe, the injector's schedule, then the timeline.
  Platform* p = &platform;
  lane->sim.every(options_.management_period,
                  [p](Seconds now) { p->management_tick(now); });
  detail::MidRunProbe* probe = &lane->probe;
  lane->sim.at(Seconds{duration_.value() * 0.5}, [p, probe](Seconds) {
    probe->charged_j = p->storage_charged_energy().value();
    probe->discharged_j = p->storage_discharged_energy().value();
    probe->stored_j = p->total_stored().value();
    probe->sampled = true;
  });
  if (injector != nullptr) injector->arm(lane->sim);
  // Run-health timeline: registered LAST, so the sample reads the platform
  // after every other callback of the same dispatch. every() consumes no
  // one-shot sequence number, so injector events keep their FIFO
  // tiebreaks.
  if (options_.timeline_dt.value() > 0.0) {
    lane->sampler.init(platform, options_.timeline_dt, duration_);
    detail::TimelineSampler* sampler = &lane->sampler;
    lane->sim.every(options_.timeline_dt,
                    [sampler](Seconds now) { sampler->sample(now); });
  }

  for (std::size_t i = 0; i < platform.input_count(); ++i)
    share_pv_curve(platform.input(i).harvester());

  lanes_.push_back(std::move(lane));
  return lanes_.size() - 1;
}

std::vector<RunResult> BatchRunner::run() {
  require_spec(!ran_, "BatchRunner::run: already ran");
  ran_ = true;
  obs::Span run_span{"batch_runner.run", "systems"};
  // Span tracing is read once per run; when it is on, 1 in every
  // kStepSampleStride lane-steps is timed as "platform.step", counted here
  // so concurrent runs share no counter.
  const bool traced = obs::TraceCollector::instance().enabled();
  std::uint64_t lane_steps = 0;

  const Seconds dt = options_.dt;
  const bool query_traffic = options_.mean_query_interval.value() > 0.0;
  // Poisson arrivals discretized per step.
  const double p_arrival =
      query_traffic
          ? std::min(1.0, dt.value() / options_.mean_query_interval.value())
          : 0.0;

  for (auto& lane : lanes_)
    lane->next_event_s = lane->sim.next_scheduled().value();

  // The clock is advanced exactly as core::Simulation advances it — the
  // k-fold accumulated sum of dt from zero — and mirrored into each lane's
  // event engine before any dispatch, so events fire on the step
  // core::Simulation::step would fire them on.
  Seconds now{0.0};
  std::uint64_t steps = 0;
  while (now + dt * 0.5 < duration_) {
    // One environment step for the whole batch. These (now, dt) pairs are
    // the anchor env::CompiledTrace compiles against.
    const env::AmbientConditions conditions = environment_->advance(now, dt);
    const Seconds horizon = now + dt;

    for (auto& lane_ptr : lanes_) {
      Lane& lane = *lane_ptr;
      // An event is due iff next_scheduled() < now + dt — the dispatch
      // window test of Simulation::step. On quiet steps (the common case)
      // the lane skips its event engine entirely; dispatch is a pure
      // function of the queue and the clock, so skipping a no-op dispatch
      // cannot change a byte.
      if (lane.next_event_s < horizon.value()) {
        lane.sim.sync_clock(now, steps);
        lane.sim.dispatch_events();
        lane.next_event_s = lane.sim.next_scheduled().value();
      }
      Platform& platform = *lane.platform;
      {
        const bool timed =
            traced &&
            lane_steps++ % obs::TraceCollector::kStepSampleStride == 0;
        obs::Span step_span{timed ? "platform.step" : nullptr, "systems"};
        platform.step(conditions, now, dt);
      }
      lane.input_stats.add(platform.last_input_power().value(), dt);
      if (lane.deliver_queries && lane.query_rng.bernoulli(p_arrival)) {
        platform.node()->deliver_query(platform.rail_voltage());
      }
    }

    now += dt;
    ++steps;
  }
  detach_pv_shares();

  std::vector<RunResult> out;
  out.reserve(lanes_.size());
  for (auto& lane : lanes_) {
    out.push_back(detail::assemble_run_result(
        *lane->platform, duration_, lane->injector, lane->initial_stored,
        lane->input_stats, lane->probe, std::move(lane->sampler.timeline)));
  }
  return out;
}

}  // namespace msehsim::systems
