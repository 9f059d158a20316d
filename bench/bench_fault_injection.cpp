// E15 — Fault injection and graceful degradation.
//
// Subjects System A to a deterministic fault campaign (harvester outages,
// converter droop/thermal shutdown, storage leakage spikes, I2C faults) and
// compares three reaction configurations over the same seeded 3-day run:
// no reaction, the survey's SoC-hysteresis fuel-cell policy, and the
// failover policy that also watches the primaries' delivered power.
//
// The three configurations run as one Campaign (a platform-variant axis of
// three), and the bit-identical-report guarantee is demonstrated the hard
// way: the whole campaign is replayed on one worker thread and with the MPP
// cache disabled, and every job's to_string(RunResult) must match byte for
// byte — determinism across scheduling AND across the caching layer.
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/table.hpp"
#include "env/environment.hpp"
#include "fault/schedule.hpp"
#include "harvest/harvester.hpp"
#include "storage/fuel_cell.hpp"
#include "systems/catalog.hpp"
#include "systems/runner.hpp"

using namespace msehsim;

namespace {

constexpr std::uint64_t kSeed = 2013;
constexpr double kDay = 86400.0;

enum class Reaction { kNone, kSocPolicy, kFailover };

const char* name(Reaction r) {
  switch (r) {
    case Reaction::kNone: return "no reaction";
    case Reaction::kSocPolicy: return "SoC hysteresis";
    case Reaction::kFailover: return "failover policy";
  }
  return "?";
}

/// One seeded campaign: both PVs die on day 1, the wind turbine's converter
/// overheats on day 2, the supercap springs a leak, and the telemetry bus
/// takes NAK bursts and a bit-error window.
fault::Schedule fault_schedule() {
  const double unset = std::numeric_limits<double>::quiet_NaN();
  fault::Schedule schedule;
  schedule.add({Seconds{1.0 * kDay}, "harvester_stuck_short", "input:0", unset,
                unset});
  schedule.add({Seconds{1.0 * kDay}, "harvester_intermittent", "input:1", 0.7,
                unset});
  schedule.add({Seconds{2.0 * kDay}, "converter_thermal_shutdown", "input:2",
                unset, 6.0 * 3600.0});
  schedule.add({Seconds{1.5 * kDay}, "storage_leakage_spike", "storage:0", 25.0,
                12.0 * 3600.0});
  schedule.add({Seconds{1.2 * kDay}, "bus_nak_burst", "bus", 20, unset});
  schedule.add({Seconds{2.2 * kDay}, "bus_bit_errors", "bus", 0.05, 3600.0});
  return schedule;
}

std::unique_ptr<systems::Platform> build_reaction(Reaction reaction,
                                                  std::uint64_t seed) {
  auto a = systems::build_system_a(seed);
  if (reaction == Reaction::kNone) {
    // Strip the catalog's default policy by overriding with one that never
    // fires (enable threshold at 0 SoC cannot trigger).
    manager::FuelCellPolicy::Params off;
    off.enable_below_soc = 0.0;
    off.disable_above_soc = 1e-9;
    a->set_fuel_cell_policy(manager::FuelCellPolicy(off), 2);
  } else if (reaction == Reaction::kFailover) {
    manager::FailoverPolicy::Params fp;
    fp.dead_time = Seconds{600.0};
    a->set_failover_policy(manager::FailoverPolicy(fp), 2);
  }  // kSocPolicy: the catalog default, leave as built.
  return a;
}

/// The 3-reaction grid as a campaign; @p threads as given.
campaign::CampaignSpec make_spec(unsigned threads) {
  campaign::CampaignSpec spec;
  for (const Reaction r :
       {Reaction::kNone, Reaction::kSocPolicy, Reaction::kFailover}) {
    spec.platforms.push_back(
        {name(r), [r](std::uint64_t seed) { return build_reaction(r, seed); }});
  }
  campaign::Scenario sc;
  sc.name = "outdoor fault campaign";
  sc.environment = [](std::uint64_t seed) {
    return std::make_unique<env::Environment>(env::Environment::outdoor(seed));
  };
  sc.duration = Seconds{3.0 * kDay};
  sc.options.dt = Seconds{5.0};
  sc.options.management_period = Seconds{60.0};
  sc.injector = campaign::schedule_injector(
      std::make_shared<const fault::Schedule>(fault_schedule()));
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {kSeed};
  spec.threads = threads;
  return spec;
}

std::vector<std::string> reports(const campaign::Campaign& c) {
  std::vector<std::string> out;
  out.reserve(c.results().size());
  for (const auto& job : c.results())
    out.push_back(systems::to_string(job.result));
  return out;
}

}  // namespace

int main() {
  std::printf("E15: fault campaign on System A, 3 outdoor days, seed %llu\n\n",
              static_cast<unsigned long long>(kSeed));

  campaign::Campaign parallel(make_spec(0));  // hardware concurrency
  parallel.run();

  TextTable table({"reaction", "availability", "packets", "load J",
                   "brownouts", "failovers", "faults fired"});
  for (std::size_t p = 0; p < 3; ++p) {
    const auto& result = parallel.at(p, 0, 0).result;
    table.add_row({parallel.spec().platforms[p].name,
                   format_fixed(result.availability, 3),
                   std::to_string(result.packets),
                   format_fixed(result.load.value(), 1),
                   std::to_string(result.brownouts),
                   std::to_string(result.faults.failovers),
                   std::to_string(result.faults.injected.total())});
  }
  std::printf("%s\n", table.render().c_str());

  // Determinism, axis 1: same campaign on a single worker thread.
  campaign::Campaign serial(make_spec(1));
  serial.run();

  // Determinism, axis 2: same campaign with the MPP cache disabled, so the
  // hot-path memoization is provably invisible to every reported byte.
  harvest::Harvester::set_mpp_cache_enabled(false);
  campaign::Campaign uncached(make_spec(1));
  uncached.run();
  harvest::Harvester::set_mpp_cache_enabled(true);

  const auto a = reports(parallel);
  const auto b = reports(serial);
  const auto c = reports(uncached);
  const bool threads_identical = a == b;
  const bool cache_identical = a == c;
  std::printf("replay determinism: N-thread vs 1-thread reports %s, "
              "cached vs uncached reports %s (%zu jobs, %zu bytes each)\n",
              threads_identical ? "bit-identical" : "DIVERGED",
              cache_identical ? "bit-identical" : "DIVERGED", a.size(),
              a.empty() ? 0 : a.front().size());

  const auto& detail = parallel.at(2, 0, 0).result;
  std::printf(
      "\nfault exposure under failover: %llu faulted harvester-steps, "
      "%llu converter shutdown steps, %llu bus hits, %llu monitor retries "
      "(%llu give-ups)\n",
      static_cast<unsigned long long>(detail.faults.harvester_faulted_steps),
      static_cast<unsigned long long>(detail.faults.converter_shutdown_steps),
      static_cast<unsigned long long>(detail.faults.bus_fault_hits),
      static_cast<unsigned long long>(detail.faults.retry_retries),
      static_cast<unsigned long long>(detail.faults.retry_give_ups));
  return threads_identical && cache_identical ? 0 : 1;
}
