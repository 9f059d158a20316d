// E4 — survey claim C1 (Sec. I): "By using a small wind turbine and a solar
// cell ... more energy can potentially be generated (and for a longer
// period per day) than if a single harvester is used."
//
// Runs controlled source mixes through one week of the same weather and
// reports harvested energy per day and generation hours per day. Multi-
// source rows must dominate their single-source constituents on both
// metrics for the claim to hold. Each site's mixes run as one Campaign;
// generation hours come straight from RunResult::generation_fraction (the
// per-step positive-input fraction), so no sampled time series is needed.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "campaign/campaign.hpp"
#include "core/table.hpp"
#include "env/environment.hpp"
#include "systems/runner.hpp"

using namespace msehsim;
using benchutil::Source;

namespace {

struct Mix {
  const char* label;
  std::vector<Source> sources;
  bool multi;
};

struct Row {
  double joules_per_day;
  double gen_hours_per_day;
};

void run_site(const char* site, bool outdoor, const std::vector<Mix>& mixes,
              std::uint64_t seed, int* failures) {
  constexpr double kDay = 86400.0;
  constexpr double kDays = 7.0;

  campaign::CampaignSpec spec;
  for (const auto& mix : mixes) {
    const auto sources = mix.sources;
    spec.platforms.push_back({mix.label, [sources](std::uint64_t) {
                                return benchutil::make_platform(sources,
                                                                Farads{50.0});
                              }});
  }
  campaign::Scenario sc;
  sc.name = site;
  sc.environment = [outdoor](std::uint64_t s) {
    return std::make_unique<env::Environment>(
        outdoor ? env::Environment::outdoor(s)
                : env::Environment::indoor_industrial(s));
  };
  sc.duration = Seconds{kDays * kDay};
  sc.options.dt = Seconds{5.0};
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {seed};
  campaign::Campaign study(std::move(spec));
  study.run();

  std::printf("%s site, 7 days, identical weather across rows:\n\n", site);
  TextTable t({"source mix", "harvested / day", "generation h / day"});
  std::vector<Row> rows;
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    const auto& result = study.at(m, 0, 0).result;
    Row r;
    r.joules_per_day = result.harvested.value() / kDays;
    r.gen_hours_per_day = result.generation_fraction * 24.0;
    rows.push_back(r);
    t.add_row({mixes[m].label, format_energy(r.joules_per_day),
               format_fixed(r.gen_hours_per_day, 1)});
  }
  std::printf("%s\n", t.render().c_str());

  // Claim check: every multi row must dominate every single row that uses a
  // subset of its sources (energy strictly, hours non-strictly).
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    if (!mixes[m].multi) continue;
    for (std::size_t s = 0; s < mixes.size(); ++s) {
      if (mixes[s].multi) continue;
      const bool subset = [&] {
        for (const auto src : mixes[s].sources) {
          bool found = false;
          for (const auto msrc : mixes[m].sources)
            if (msrc == src) found = true;
          if (!found) return false;
        }
        return true;
      }();
      if (!subset) continue;
      const bool more_energy = rows[m].joules_per_day > rows[s].joules_per_day;
      const bool longer = rows[m].gen_hours_per_day >=
                          rows[s].gen_hours_per_day - 0.05;
      if (!more_energy || !longer) {
        ++*failures;
        std::printf("  VIOLATION: '%s' does not dominate '%s'\n",
                    mixes[m].label, mixes[s].label);
      }
    }
  }
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 2013;
  std::printf("E4 / claim C1 — multi-source vs single-source availability\n\n");

  int failures = 0;

  const std::vector<Mix> outdoor_mixes = {
      {"solar only", {Source::kPvOutdoor}, false},
      {"wind only", {Source::kWind}, false},
      {"solar + wind", {Source::kPvOutdoor, Source::kWind}, true},
  };
  run_site("outdoor", true, outdoor_mixes, kSeed, &failures);

  const std::vector<Mix> indoor_mixes = {
      {"light only", {Source::kPvIndoor}, false},
      {"thermal only", {Source::kTeg}, false},
      {"vibration only", {Source::kPiezo}, false},
      {"light + thermal + vibration + HVAC",
       {Source::kPvIndoor, Source::kTeg, Source::kPiezo, Source::kHvac},
       true},
  };
  run_site("indoor industrial", false, indoor_mixes, kSeed, &failures);

  std::printf("claim C1 (multi-source harvests more, for more hours/day): %s\n",
              failures == 0 ? "HOLDS" : "VIOLATED");
  return failures == 0 ? 0 : 1;
}
