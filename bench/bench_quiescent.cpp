// E7 — survey claim C4 (Sec. II.1) + Table I's quiescent-current row:
// "There is a trade-off between the efficiency and the complexity/quiescent
// power consumption of the power conditioning circuit."
//
// Runs all seven systems through the same energy-sparse office week (light
// + weak RF only) and reports each platform's quiescent burn against what
// it harvested. Systems whose Table I quiescent draw is large (MPWiNode at
// 75 uA, EH-Link at 32 uA) must show quiescent consumption rivaling or
// exceeding harvest; the sub-uA MAX17710 must not.
#include <cstdio>

#include "core/table.hpp"
#include "env/environment.hpp"
#include "systems/catalog.hpp"
#include "systems/runner.hpp"

using namespace msehsim;

int main() {
  constexpr std::uint64_t kSeed = 2013;
  constexpr double kDay = 86400.0;

  std::printf("E7 / claim C4 — quiescent draw vs harvest at uW levels\n");
  std::printf("one week in an energy-sparse office (light + weak RF only)\n\n");

  TextTable t({"system", "Iq (Table I)", "harvested/day", "quiescent/day",
               "Iq share of harvest", "packets/day"});
  double share[7] = {};
  double quiescent_day[7] = {};
  const auto systems_list = systems::build_all_surveyed(kSeed);
  for (std::size_t i = 0; i < systems_list.size(); ++i) {
    auto& platform = *systems_list[i];
    auto environment = env::Environment::office(kSeed);
    systems::RunOptions options;
    options.dt = Seconds{5.0};
    const auto r = run_platform(platform, environment, Seconds{7 * kDay}, options);
    const double harvested_day = r.harvested.value() / 7.0;
    quiescent_day[i] = r.quiescent.value() / 7.0;
    share[i] = harvested_day > 0.0 ? quiescent_day[i] / harvested_day : 1e9;
    const auto cls = platform.classify();
    std::string iq = format_current(cls.quiescent_current.value());
    if (cls.quiescent_is_bound) iq.insert(0, "< ");
    t.add_row({std::string(platform.spec().name), iq,
               format_energy(harvested_day), format_energy(quiescent_day[i]),
               share[i] > 100.0 ? std::string("> 100x")
                                : format_fixed(share[i] * 100.0, 1) + " %",
               format_fixed(static_cast<double>(r.packets) / 7.0, 1)});
  }
  std::printf("%s\n", t.render().c_str());

  // Shape checks. Among the systems that can harvest office light at all
  // (B, E, F — the others' harvesters read outdoor/vibration channels that
  // are dead here), the quiescent share of harvest must rank with their
  // Table I quiescent currents: E (<1 uA) < B (7 uA) < F (20 uA). And the
  // 75 uA MPWiNode must burn the most absolute quiescent energy.
  const bool shares_rank = share[4] < share[1] && share[1] < share[5];
  bool d_burns_most = true;
  for (std::size_t i = 0; i < 7; ++i)
    if (i != 3 && quiescent_day[i] >= quiescent_day[3]) d_burns_most = false;
  std::printf("office-capable systems rank by quiescent share (E < B < F): %s\n",
              shares_rank ? "yes" : "NO");
  std::printf("MPWiNode (75 uA) burns the most quiescent energy: %s\n",
              d_burns_most ? "yes" : "NO");
  const bool holds = shares_rank && d_burns_most;
  std::printf("\nclaim C4 (quiescent draw dominates at uW harvest levels): %s\n",
              holds ? "HOLDS" : "VIOLATED");
  return holds ? 0 : 1;
}
