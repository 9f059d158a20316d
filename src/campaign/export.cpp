#include "campaign/export.hpp"

#include <fstream>

#include "core/error.hpp"
#include "core/fmt.hpp"
#include "obs/trace.hpp"

namespace msehsim::campaign {

namespace {

/// Same locale-independent shortest round-trip format as
/// to_string(RunResult): every double survives parse_csv bit-exactly, and
/// the bytes cannot vary with the process locale (snprintf %g under a
/// de_DE-style LC_NUMERIC emitted ',' separators — invalid CSV/JSON).
std::string num(double v) {
  return format_double(v);
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary);
  require_spec(file.good(), "campaign export: cannot open '" + path + "'");
  file << text;
  require_spec(file.good(), "campaign export: write to '" + path + "' failed");
}

}  // namespace

std::string results_csv(const Campaign& campaign) {
  obs::Span span{"campaign.export_results_csv", "campaign"};
  const auto& fields = systems::run_result_fields();
  std::string out = "platform,scenario,seed_index,seed";
  for (const auto& f : fields) {
    out += ',';
    out += f.name;
  }
  out += '\n';
  for (const auto& job : campaign.results()) {
    out += num(static_cast<double>(job.platform_index));
    out += ',';
    out += num(static_cast<double>(job.scenario_index));
    out += ',';
    out += num(static_cast<double>(job.seed_index));
    out += ',';
    out += num(static_cast<double>(job.seed));
    for (const auto& f : fields) {
      out += ',';
      out += num(f.get(job.result));
    }
    out += '\n';
  }
  return out;
}

std::string results_json(const Campaign& campaign) {
  obs::Span span{"campaign.export_results_json", "campaign"};
  const auto& fields = systems::run_result_fields();
  const auto& spec = campaign.spec();
  std::string out = "{\n  \"platforms\": [";
  for (std::size_t p = 0; p < spec.platforms.size(); ++p) {
    if (p) out += ", ";
    out += '"' + json_escape(spec.platforms[p].name) + '"';
  }
  out += "],\n  \"scenarios\": [";
  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    if (s) out += ", ";
    out += '"' + json_escape(spec.scenarios[s].name) + '"';
  }
  out += "],\n  \"seeds\": [";
  for (std::size_t k = 0; k < spec.seeds.size(); ++k) {
    if (k) out += ", ";
    out += num(static_cast<double>(spec.seeds[k]));
  }
  // Timelines this campaign materialized, regardless of provenance: one per
  // (scenario, seed) slot whenever any platform replays them, whether
  // compiled or loaded from the persistent cache. A function of the spec
  // alone, so the document is byte-identical between a cold run and a warm
  // one, and does not depend on earlier campaigns sharing the cache — the
  // export byte-identity contract must not see cache state.
  const std::size_t slots =
      spec.platforms.empty() ? 0 : spec.scenarios.size() * spec.seeds.size();
  out += "],\n  \"trace_compiles\": " + num(static_cast<double>(slots));
  out += ",\n  \"jobs\": [";
  bool first_job = true;
  for (const auto& job : campaign.results()) {
    out += first_job ? "\n" : ",\n";
    first_job = false;
    out += "    {\"platform\": " + num(static_cast<double>(job.platform_index)) +
           ", \"scenario\": " + num(static_cast<double>(job.scenario_index)) +
           ", \"seed_index\": " + num(static_cast<double>(job.seed_index)) +
           ", \"seed\": " + num(static_cast<double>(job.seed)) + ", \"fields\": {";
    for (std::size_t f = 0; f < fields.size(); ++f) {
      if (f) out += ", ";
      out += '"' + json_escape(fields[f].name) +
             "\": " + num(fields[f].get(job.result));
    }
    out += "}, \"sources\": [";
    const auto& sources = job.result.ledger.sources;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const auto& src = sources[i];
      if (i) out += ", ";
      out += "{\"name\": \"" + json_escape(src.name) + "\", \"kind\": \"" +
             json_escape(src.kind) + "\", \"transducer_j\": " +
             num(src.transducer_j) + ", \"conversion_loss_j\": " +
             num(src.conversion_loss_j) + ", \"tracker_overhead_j\": " +
             num(src.tracker_overhead_j) + ", \"delivered_j\": " +
             num(src.delivered_j) + ", \"share\": " + num(src.share) +
             ", \"mpp_cache_hits\": " +
             num(static_cast<double>(src.mpp_cache_hits)) +
             ", \"mpp_recomputes\": " +
             num(static_cast<double>(src.mpp_recomputes)) + '}';
    }
    out += "]}";
  }
  out += "\n  ],\n  \"seed_stats\": [";
  bool first_cell = true;
  // Zero seeds -> zero cells: stats over an empty sample set would render
  // as NaN, which JSON cannot carry.
  for (std::size_t p = 0; !spec.seeds.empty() && p < spec.platforms.size();
       ++p) {
    for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
      out += first_cell ? "\n" : ",\n";
      first_cell = false;
      const auto stats = campaign.seed_stats(p, s);
      out += "    {\"platform\": " + num(static_cast<double>(p)) +
             ", \"scenario\": " + num(static_cast<double>(s)) + ", \"fields\": {";
      for (std::size_t f = 0; f < fields.size(); ++f) {
        if (f) out += ", ";
        out += '"' + json_escape(fields[f].name) + "\": {\"mean\": " +
               num(stats[f].mean) + ", \"stddev\": " + num(stats[f].stddev) +
               ", \"min\": " + num(stats[f].min) +
               ", \"max\": " + num(stats[f].max) + '}';
      }
      out += "}}";
    }
  }
  out += "\n  ]\n}\n";
  return out;
}

void write_results_csv(const Campaign& campaign, const std::string& path) {
  write_text(path, results_csv(campaign));
}

void write_results_json(const Campaign& campaign, const std::string& path) {
  write_text(path, results_json(campaign));
}

std::string metrics_csv(const Campaign& campaign) {
  obs::Span span{"campaign.export_metrics_csv", "campaign"};
  return campaign.metrics().csv();
}

void write_metrics_csv(const Campaign& campaign, const std::string& path) {
  write_text(path, metrics_csv(campaign));
}

}  // namespace msehsim::campaign
