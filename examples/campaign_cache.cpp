// Persistent trace cache: run the same campaign twice and let the second
// run memory-map its ambient timelines instead of synthesizing them.
//
// The first invocation against an empty cache directory compiles every
// (scenario, seed) timeline and writes it to disk; re-running the binary
// (or any campaign sharing the scenario definitions) probes the cache,
// maps each entry read-only, and skips environment synthesis entirely.
// Results are byte-identical either way — the program proves it by
// exporting both a cache-backed and a cache-less run and comparing.
//
//   $ ./campaign_cache [cache_dir] [results.csv] [metrics.csv]
//   $ ./campaign_cache my_cache && ./campaign_cache my_cache   # 2nd is warm
#include <cstdio>
#include <memory>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "env/environment.hpp"
#include "env/trace_cache.hpp"
#include "systems/catalog.hpp"

using namespace msehsim;

namespace {

campaign::CampaignSpec make_spec(const std::string& cache_dir) {
  campaign::CampaignSpec spec;
  spec.platforms.push_back(
      {"system-a", [](std::uint64_t s) { return systems::build_system_a(s); }});
  spec.platforms.push_back(
      {"ambimax", [](std::uint64_t s) { return systems::build_system_c(s); }});
  campaign::Scenario outdoor;
  outdoor.name = "outdoor-2h";
  outdoor.environment = [](std::uint64_t s) {
    return std::make_unique<env::Environment>(env::Environment::outdoor(s));
  };
  outdoor.duration = Seconds{2.0 * 3600.0};
  outdoor.options.dt = Seconds{5.0};
  spec.scenarios.push_back(std::move(outdoor));
  spec.seeds = {1, 2, 3};
  spec.threads = 4;
  if (!cache_dir.empty())
    spec.shared_trace_cache = std::make_shared<env::TraceCache>(cache_dir);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cache_dir = argc > 1 ? argv[1] : "campaign_cache_dir";
  const std::string results_path = argc > 2 ? argv[2] : "campaign_results.csv";
  const std::string metrics_path = argc > 3 ? argv[3] : "campaign_metrics.csv";

  campaign::Campaign cached(make_spec(cache_dir));
  cached.run();
  const auto stats = cached.trace_cache_stats();

  // A cache-less control run: the export bytes must match exactly.
  campaign::Campaign control(make_spec(""));
  control.run();
  const bool identical =
      campaign::results_csv(cached) == campaign::results_csv(control) &&
      campaign::results_json(cached) == campaign::results_json(control);

  campaign::write_results_csv(cached, results_path);
  campaign::write_metrics_csv(cached, metrics_path);

  std::printf("ran %zu jobs: %llu trace compiles, %llu cache hits, "
              "%llu misses (%llu bytes mapped)\n",
              cached.results().size(),
              static_cast<unsigned long long>(cached.trace_compiles()),
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.bytes_mapped));
  std::printf("cache dir: %s  (re-run to hit it)\n", cache_dir.c_str());
  std::printf("results:   %s\nmetrics:   %s\n", results_path.c_str(),
              metrics_path.c_str());
  std::printf("cache-backed vs cache-less exports: %s\n",
              identical ? "byte-identical" : "DIFFER (bug!)");
  return identical ? 0 : 1;
}
