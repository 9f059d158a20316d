// Independent reference harness for the byte-identity tests.
//
// systems::run_platform is a one-lane systems::BatchRunner, so checking a
// campaign against it would check the step engine against itself. This
// header keeps a second, deliberately naive engine: a core::Simulation whose
// on_step callbacks advance the environment and drive Platform::step (the
// virtual-dispatch GenericStepOps policy) — no lane blocks, no shared PV
// curve solves. Events are registered in the
// order BatchRunner::add_lane documents, so the two engines must agree byte
// for byte on every RunResult.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/error.hpp"
#include "core/random.hpp"
#include "core/simulation.hpp"
#include "core/stats.hpp"
#include "env/environment.hpp"
#include "systems/platform.hpp"
#include "systems/runner.hpp"

namespace msehsim::reference {

/// Runs @p platform in @p environment for @p duration on the reference
/// harness; same contract as systems::run_platform.
inline systems::RunResult reference_run(
    systems::Platform& platform, env::EnvironmentModel& environment,
    Seconds duration, const systems::RunOptions& options = {},
    fault::FaultInjector* injector = nullptr) {
  Simulation sim(options.dt);
  const Joules initial_stored = platform.total_stored();

  RunningStats input_stats;
  sim.on_step([&](Seconds now, Seconds dt) {
    const auto conditions = environment.advance(now, dt);
    platform.step(conditions, now, dt);
    input_stats.add(platform.last_input_power().value(), dt);
  });
  sim.every(options.management_period,
            [&](Seconds now) { platform.management_tick(now); });
  Pcg32 query_rng(systems::kQuerySeed, stream_key("queries"));
  if (options.mean_query_interval.value() > 0.0 && platform.node() != nullptr) {
    sim.on_step([&](Seconds, Seconds dt) {
      // Poisson arrivals discretized per step.
      const double p_arrival =
          std::min(1.0, dt.value() / options.mean_query_interval.value());
      if (query_rng.bernoulli(p_arrival))
        platform.node()->deliver_query(platform.rail_voltage());
    });
  }
  systems::detail::MidRunProbe probe;
  sim.at(Seconds{duration.value() * 0.5}, [&](Seconds) {
    probe.charged_j = platform.storage_charged_energy().value();
    probe.discharged_j = platform.storage_discharged_energy().value();
    probe.stored_j = platform.total_stored().value();
    probe.sampled = true;
  });
  if (injector != nullptr) injector->arm(sim);
  systems::detail::TimelineSampler sampler;
  if (options.timeline_dt.value() > 0.0) {
    sampler.init(platform, options.timeline_dt, duration);
    sim.every(options.timeline_dt,
              [&sampler](Seconds now) { sampler.sample(now); });
  }

  sim.run_for(duration);

  return systems::detail::assemble_run_result(platform, duration, injector,
                                              initial_stored, input_stats,
                                              probe,
                                              std::move(sampler.timeline));
}

/// to_string of every job of @p spec in grid order (platform-major, then
/// scenario, then seed), each built from the spec's factories and run by
/// @p run over a freshly synthesized live scenario.environment(seed) — the
/// per-job expectation a Campaign's results are checked against.
template <typename RunFn>
std::vector<std::string> live_grid_reports(const campaign::CampaignSpec& spec,
                                           RunFn run) {
  std::vector<std::string> out;
  for (const auto& variant : spec.platforms)
    for (const auto& scenario : spec.scenarios)
      for (const std::uint64_t seed : spec.seeds) {
        auto platform = variant.make(seed);
        auto environment = scenario.environment(seed);
        require_spec(platform != nullptr && environment != nullptr,
                     "live_grid_reports: factory returned null");
        std::unique_ptr<fault::FaultInjector> injector;
        if (scenario.injector) injector = scenario.injector(seed, *platform);
        const auto result = run(*platform, *environment, scenario.duration,
                                scenario.options, injector.get());
        out.push_back(systems::to_string(result));
      }
  return out;
}

}  // namespace msehsim::reference
