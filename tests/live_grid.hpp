// Per-job expectation for campaign byte-identity tests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/error.hpp"
#include "systems/runner.hpp"

namespace msehsim::reference {

/// to_string of every job of @p spec in grid order (platform-major, then
/// scenario, then seed), each built from the spec's factories and run alone
/// by systems::run_platform over a freshly synthesized live
/// scenario.environment(seed): a one-lane BatchRunner with no lane block
/// and no compiled trace. The per-job expectation a Campaign's results are
/// checked against.
inline std::vector<std::string> live_grid_reports(
    const campaign::CampaignSpec& spec) {
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
        const auto result =
            systems::run_platform(*platform, *environment, scenario.duration,
                                  scenario.options, injector.get());
        out.push_back(systems::to_string(result));
      }
  return out;
}

}  // namespace msehsim::reference
