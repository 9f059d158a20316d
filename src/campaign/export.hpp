// Campaign result exporters.
//
// Serializes a finished Campaign grid — per-job RunResults and the
// per-(platform, scenario) seed statistics — to CSV and JSON for offline
// analysis. The results CSV is fully numeric (grid coordinates as indices,
// every value in the locale-independent shortest round-trip form of
// core/fmt) so core's parse_csv round-trips it bit-exactly; the JSON
// carries the human-readable platform/scenario names and the seed
// statistics alongside.
#pragma once

#include <string>

#include "campaign/campaign.hpp"

namespace msehsim::campaign {

/// One row per job in grid order:
/// `platform,scenario,seed_index,seed,<systems::run_result_fields()...>`.
/// Numeric-only (indices, not names) so parse_csv round-trips it.
[[nodiscard]] std::string results_csv(const Campaign& campaign);

/// The whole campaign as one JSON document: platform/scenario/seed axes by
/// name, the count of (scenario, seed) timelines the campaign materialized
/// (compiled or cache-loaded alike, so the document is byte-identical across
/// cache states), every job's fields plus its per-source ledger rows, and
/// the per-cell seed statistics.
[[nodiscard]] std::string results_json(const Campaign& campaign);

/// Campaign::metrics() as two-column `metric,value` CSV — every job's
/// metrics snapshot merged in grid order plus the campaign-level counters
/// (campaign.jobs, campaign.trace_compiles). Deterministic across thread
/// counts.
[[nodiscard]] std::string metrics_csv(const Campaign& campaign);

/// File-writing conveniences (throw SpecError on I/O failure).
void write_results_csv(const Campaign& campaign, const std::string& path);
void write_results_json(const Campaign& campaign, const std::string& path);
void write_metrics_csv(const Campaign& campaign, const std::string& path);

}  // namespace msehsim::campaign
