// Campaign tracing: watch the parallel campaign engine schedule itself.
//
// Runs a small (platform x scenario x seed) grid with the span collector
// enabled and writes:
//   1. campaign_trace.json — a Chrome trace_event document. Open it at
//      https://ui.perfetto.dev (or chrome://tracing): one track per worker,
//      one "campaign.block" span per lane block with its scenario, seed and
//      lane count in the args, "campaign.job_wait" showing queue time, and
//      sampled "platform.step" spans (1 in every 1024 lane-steps of the
//      block's run) inside each block.
//   2. campaign_metrics.csv — every job's metrics snapshot merged in grid
//      order plus campaign-level counters, via Campaign::metrics().
//
//   $ ./campaign_trace [trace.json] [metrics.csv]
#include <cstdio>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "env/environment.hpp"
#include "obs/trace.hpp"
#include "systems/catalog.hpp"

using namespace msehsim;

int main(int argc, char** argv) {
  const std::string trace_path = argc > 1 ? argv[1] : "campaign_trace.json";
  const std::string metrics_path = argc > 2 ? argv[2] : "campaign_metrics.csv";

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

  auto& collector = obs::TraceCollector::instance();
  collector.enable();

  campaign::Campaign c(std::move(spec));
  c.run();

  collector.write_chrome_trace(trace_path);
  const auto events = collector.event_count();
  collector.disable();
  campaign::write_metrics_csv(c, metrics_path);

  std::printf("ran %zu jobs, captured %zu spans (%llu dropped)\n",
              c.results().size(), events,
              static_cast<unsigned long long>(collector.dropped()));
  std::printf("trace:   %s  (open in https://ui.perfetto.dev)\n",
              trace_path.c_str());
  std::printf("metrics: %s\n", metrics_path.c_str());
  return 0;
}
