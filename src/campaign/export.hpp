// Campaign result exporters.
//
// Serializes a finished Campaign grid — per-job RunResults and the
// per-(platform, scenario) seed statistics — to CSV and JSON for offline
// analysis. The CSV flavors are fully numeric (grid coordinates as indices,
// every value in the locale-independent shortest round-trip form of
// core/fmt) so core's parse_csv round-trips them bit-exactly; the JSON
// carries the human-readable platform/scenario names alongside.
#pragma once

#include <string>

#include "campaign/campaign.hpp"

namespace msehsim::campaign {

/// One row per job in grid order:
/// `platform,scenario,seed_index,seed,<systems::run_result_fields()...>`.
/// Numeric-only (indices, not names) so parse_csv round-trips it.
[[nodiscard]] std::string results_csv(const Campaign& campaign);

/// One row per (platform, scenario) cell:
/// `platform,scenario,<field>.mean,<field>.stddev,<field>.min,<field>.max`
/// for every systems::run_result_fields() entry, aggregated across seeds.
[[nodiscard]] std::string seed_stats_csv(const Campaign& campaign);

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

/// Every job's run-health timeline (RunOptions::timeline_dt) as one JSON
/// document: grid coordinates plus the obs::Timeline json() per job that
/// carries one. Jobs without a timeline (sampling off) are omitted, so the
/// document is `{"timelines": []}` for an unsampled campaign. Deterministic
/// across thread counts and lane widths.
[[nodiscard]] std::string timelines_json(const Campaign& campaign);

/// File-writing conveniences (throw SpecError on I/O failure).
void write_results_csv(const Campaign& campaign, const std::string& path);
void write_seed_stats_csv(const Campaign& campaign, const std::string& path);
void write_results_json(const Campaign& campaign, const std::string& path);
void write_metrics_csv(const Campaign& campaign, const std::string& path);
void write_timelines_json(const Campaign& campaign, const std::string& path);

}  // namespace msehsim::campaign
