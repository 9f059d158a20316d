// Outdoor deployment: one week of the Smart Power Unit (survey System A,
// Fig. 1) at an outdoor site, with a per-day harvest breakdown and a CSV
// export of each day's run-health timeline for offline plotting.
//
//   $ ./outdoor_deployment [output.csv]
#include <cstdio>
#include <fstream>
#include <string>

#include "core/table.hpp"
#include "env/environment.hpp"
#include "systems/catalog.hpp"
#include "systems/runner.hpp"

using namespace msehsim;

int main(int argc, char** argv) {
  constexpr std::uint64_t kSeed = 2013;
  constexpr double kDay = 86400.0;

  auto platform = systems::build_system_a(kSeed);
  auto environment = env::Environment::outdoor(kSeed);

  std::printf("Smart Power Unit (System A) — 7 days, %s\n\n",
              environment.description().c_str());

  systems::RunOptions options;
  options.dt = Seconds{1.0};
  options.timeline_dt = Seconds{300.0};

  TextTable daily({"day", "harvested", "node load", "packets", "avail %",
                   "bus V at midnight"});
  Joules harvested_before{0.0};
  Joules load_before{0.0};
  std::uint64_t packets_before = 0;
  // Each day is its own run (its clock restarts at 0), so the CSV prefixes
  // every timeline row with its day.
  std::string csv;
  std::size_t samples = 0;
  for (int day = 0; day < 7; ++day) {
    const auto r = run_platform(*platform, environment, Seconds{kDay}, options);
    const std::string day_csv = r.timeline->csv();
    const std::size_t body = day_csv.find('\n') + 1;
    if (day == 0) csv = "day," + day_csv.substr(0, body);
    for (std::size_t line = body; line < day_csv.size();) {
      const std::size_t end = day_csv.find('\n', line) + 1;
      csv += std::to_string(day + 1) + ',' + day_csv.substr(line, end - line);
      line = end;
    }
    samples += r.timeline->sample_count();
    const Joules harvested_now = platform->harvested_energy();
    const Joules load_now = platform->load_energy();
    const auto packets_now = platform->node()->packets_sent();
    daily.add_row({std::to_string(day + 1),
                   format_energy((harvested_now - harvested_before).value()),
                   format_energy((load_now - load_before).value()),
                   std::to_string(packets_now - packets_before),
                   format_fixed(platform->node()->availability() * 100.0, 1),
                   format_fixed(platform->bus_voltage().value(), 2)});
    harvested_before = harvested_now;
    load_before = load_now;
    packets_before = packets_now;
  }
  std::printf("%s\n", daily.render().c_str());

  TextTable chains({"input chain", "type", "delivered", "tracking eff"});
  for (std::size_t i = 0; i < platform->input_count(); ++i) {
    const auto& chain = platform->input(i);
    chains.add_row({std::string(chain.harvester().name()),
                    std::string(harvest::to_string(chain.harvester().kind())),
                    format_energy(chain.delivered_energy().value()),
                    format_fixed(chain.tracking_efficiency() * 100.0, 1) + " %"});
  }
  std::printf("%s\n", chains.render().c_str());

  const std::string csv_path = argc > 1 ? argv[1] : "outdoor_deployment.csv";
  std::ofstream(csv_path, std::ios::binary) << csv;
  std::printf("time series written to %s (%zu samples)\n", csv_path.c_str(),
              samples);
  return 0;
}
