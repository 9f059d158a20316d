// Campaign requests over the wire: JSON body -> validated CampaignRequest
// -> canonical form -> campaign::CampaignSpec.
//
// The daemon cannot ship std::function factories over a socket, so a
// request names things instead: platforms come from the systems catalog
// (the Table I builders) and scenarios from the env::Environment presets.
// Those registries are the whole reason results are memoizable — a name
// pins the exact deterministic builder, so (canonical request, library
// version) pins every result byte.
//
// Canonical-form discipline (the serve::ResultCache key): the canonical
// string contains exactly the fields that can change a response byte —
// platform names in request order, per-scenario (name, kind, duration, dt)
// with dt/duration in round-trip-exact core/fmt form, seeds in request
// order — and *omits* every knob that cannot (thread count and trace-cache
// state are byte-neutral by the campaign's and the exporters' contracts).
// Two users asking for the same study with different performance knobs
// therefore share one cache entry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "env/trace_cache.hpp"

namespace msehsim::serve {

/// One scenario named by a request: a preset generator plus run shape.
struct ScenarioRequest {
  std::string name;        ///< label echoed in exports; part of the key
  std::string kind;        ///< env preset: outdoor | indoor-industrial |
                           ///<   agricultural | office
  double duration_s{0.0};
  double dt_s{1.0};
};

/// A validated POST /v1/campaign body.
struct CampaignRequest {
  std::vector<std::string> platforms;  ///< catalog names, e.g. "system-a"
  std::vector<ScenarioRequest> scenarios;
  std::vector<std::uint64_t> seeds;
};

/// The catalog names POST /v1/campaign accepts for "platforms":
/// system-a..system-g plus smart-harvester.
[[nodiscard]] const std::vector<std::string>& known_platforms();

/// The env presets accepted for a scenario's "kind".
[[nodiscard]] const std::vector<std::string>& known_scenario_kinds();

/// Parses and validates a request body. Strict like every other parser in
/// the repo: unknown top-level or scenario keys, unknown platform/kind
/// names, non-integral seeds, non-finite or non-positive durations/dt all
/// throw SpecError (the daemon's 400 path). Empty axes are legal — an
/// empty grid is a valid zero-job campaign. @p max_jobs caps
/// platforms x scenarios x seeds and @p max_steps caps the total expected
/// step count (admission control happens at parse time, before any work).
[[nodiscard]] CampaignRequest parse_campaign_request(
    const std::string& body, std::uint64_t max_jobs = 4096,
    double max_steps = 1e9);

/// The request's canonical form — the ResultCache key material. Stable
/// across JSON whitespace/key-order/number-spelling differences.
[[nodiscard]] std::string canonical_form(const CampaignRequest& request);

/// Materializes the named grid into a runnable spec. @p shared_cache (may
/// be null) is the daemon's process-wide persistent trace cache, shared by
/// every request; @p threads caps the campaign pool (0 = hardware).
[[nodiscard]] campaign::CampaignSpec to_campaign_spec(
    const CampaignRequest& request,
    std::shared_ptr<env::TraceCache> shared_cache, unsigned threads);

}  // namespace msehsim::serve
