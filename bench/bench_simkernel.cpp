// E10 — google-benchmark microbenchmarks of the simulation kernels.
//
// Not a paper artifact: engineering throughput numbers (steps/second per
// subsystem) so users can size year-scale studies.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>

#include "campaign/campaign.hpp"
#include "env/environment.hpp"
#include "obs/trace.hpp"
#include "harvest/transducers.hpp"
#include "power/chain.hpp"
#include "power/converter.hpp"
#include "power/mppt.hpp"
#include "storage/supercapacitor.hpp"
#include "systems/catalog.hpp"
#include "systems/runner.hpp"

using namespace msehsim;

namespace {

void BM_EnvironmentAdvance(benchmark::State& state) {
  auto env = env::Environment::indoor_industrial(1);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.advance(Seconds{t}, Seconds{1.0}));
    t += 1.0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EnvironmentAdvance);

void BM_PvCurrentAt(benchmark::State& state) {
  harvest::PvPanel pv("pv", {});
  env::AmbientConditions c;
  c.solar_irradiance = WattsPerSquareMeter{800.0};
  pv.set_conditions(c);
  double v = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pv.current_at(Volts{v}));
    v = v < 4.0 ? v + 0.001 : 0.0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PvCurrentAt);

void BM_PvMppOracle(benchmark::State& state) {
  harvest::PvPanel pv("pv", {});
  env::AmbientConditions c;
  c.solar_irradiance = WattsPerSquareMeter{800.0};
  pv.set_conditions(c);
  for (auto _ : state) benchmark::DoNotOptimize(pv.maximum_power_point());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PvMppOracle);

void BM_PvMppRecompute(benchmark::State& state) {
  // Same query with the conditions-keyed cache disabled: the true cost of
  // one closed-form MPP solve, and the per-call saving the cache buys.
  harvest::PvPanel pv("pv", {});
  env::AmbientConditions c;
  c.solar_irradiance = WattsPerSquareMeter{800.0};
  pv.set_conditions(c);
  harvest::Harvester::set_mpp_cache_enabled(false);
  for (auto _ : state) benchmark::DoNotOptimize(pv.maximum_power_point());
  harvest::Harvester::set_mpp_cache_enabled(true);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PvMppRecompute);

void BM_SupercapChargePacket(benchmark::State& state) {
  storage::Supercapacitor::Params p;
  p.main_capacitance = Farads{25.0};
  p.initial_voltage = Volts{2.0};
  storage::Supercapacitor sc("sc", p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sc.charge(Watts{10e-3}, Seconds{1.0}));
    benchmark::DoNotOptimize(sc.discharge(Watts{10e-3}, Seconds{1.0}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_SupercapChargePacket);

void BM_PlatformStep(benchmark::State& state) {
  auto platform = systems::build_system_a(1);
  auto env = env::Environment::outdoor(1);
  double t = 0.0;
  for (auto _ : state) {
    const auto c = env.advance(Seconds{t}, Seconds{1.0});
    platform->step(c, Seconds{t}, Seconds{1.0});
    t += 1.0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PlatformStep);

void BM_SystemBPlatformStep(benchmark::State& state) {
  auto platform = systems::build_system_b(1);
  auto env = env::Environment::indoor_industrial(1);
  double t = 0.0;
  for (auto _ : state) {
    const auto c = env.advance(Seconds{t}, Seconds{1.0});
    platform->step(c, Seconds{t}, Seconds{1.0});
    t += 1.0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SystemBPlatformStep);

void BM_ManagementTick(benchmark::State& state) {
  auto platform = systems::build_system_b(1);
  for (auto _ : state) platform->management_tick(Seconds{0.0});
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ManagementTick);

void BM_SimulatedDay(benchmark::State& state) {
  // End-to-end: one simulated day of System A at 5 s resolution.
  for (auto _ : state) {
    auto platform = systems::build_system_a(1);
    auto env = env::Environment::outdoor(1);
    systems::RunOptions options;
    options.dt = Seconds{5.0};
    benchmark::DoNotOptimize(
        run_platform(*platform, env, Seconds{86400.0}, options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatedDay)->Unit(benchmark::kMillisecond);

void BM_SystemA_DayRun(benchmark::State& state) {
  // Whole-run kernel throughput in simulation steps/second: one day of
  // System A outdoors at 5 s resolution, everything included (environment,
  // chains, MPP-yield accounting, storage, node, management). This is the
  // number that decides whether year-scale campaigns are tractable.
  constexpr double kDt = 5.0;
  constexpr double kDay = 86400.0;
  for (auto _ : state) {
    auto platform = systems::build_system_a(1);
    auto env = env::Environment::outdoor(1);
    systems::RunOptions options;
    options.dt = Seconds{kDt};
    benchmark::DoNotOptimize(
        run_platform(*platform, env, Seconds{kDay}, options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kDay / kDt));
}
BENCHMARK(BM_SystemA_DayRun)->Unit(benchmark::kMillisecond);

void BM_SystemA_DayRun_Traced(benchmark::State& state) {
  // Same kernel with the span collector live at default 1-in-1024 sampling:
  // the acceptance gate is that this stays within noise of BM_SystemA_DayRun
  // (the hot sites pay one relaxed atomic increment per step when sampled
  // out, a mutexed append only on the sampled one-in-a-thousand).
  constexpr double kDt = 5.0;
  constexpr double kDay = 86400.0;
  obs::TraceCollector::instance().enable();
  for (auto _ : state) {
    auto platform = systems::build_system_a(1);
    auto env = env::Environment::outdoor(1);
    systems::RunOptions options;
    options.dt = Seconds{kDt};
    benchmark::DoNotOptimize(
        run_platform(*platform, env, Seconds{kDay}, options));
  }
  obs::TraceCollector::instance().disable();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kDay / kDt));
}
BENCHMARK(BM_SystemA_DayRun_Traced)->Unit(benchmark::kMillisecond);

/// A minimal probe platform (one cheap linear-source chain into a supercap,
/// no node): the kind of parameter-sweep variant a design-space campaign
/// runs by the dozen, where ambient synthesis — not platform physics —
/// dominates each step. Variants cycle through the cheap transducer
/// modalities so every job is distinct work against the same site.
std::unique_ptr<systems::Platform> probe_platform(std::size_t variant) {
  systems::PlatformSpec spec;
  spec.name = "probe-" + std::to_string(variant);
  auto p = std::make_unique<systems::Platform>(spec);
  std::unique_ptr<harvest::Harvester> source;
  switch (variant % 3) {
    case 0: {
      harvest::Teg::Params tp;
      tp.seebeck_per_kelvin = Volts{0.04 + 0.005 * static_cast<double>(variant)};
      tp.internal_resistance = Ohms{4.0 + static_cast<double>(variant)};
      source = std::make_unique<harvest::Teg>("teg", tp);
      break;
    }
    case 1: {
      harvest::VibrationHarvester::Params vp;
      vp.proof_mass_kg = 0.005 + 0.001 * static_cast<double>(variant);
      source = std::make_unique<harvest::VibrationHarvester>(
          "pz", vp, harvest::HarvesterKind::kPiezo);
      break;
    }
    default: {
      harvest::RfHarvester::Params rp;
      rp.aperture_m2 = 0.004 + 0.001 * static_cast<double>(variant);
      source = std::make_unique<harvest::RfHarvester>("rf", rp);
      break;
    }
  }
  p->add_input(std::make_unique<power::InputChain>(
      std::move(source), std::make_unique<power::OracleMppt>(),
      power::Converter::schottky_diode("d"), Seconds{10.0}));
  storage::Supercapacitor::Params sp;
  sp.main_capacitance = Farads{1.0};
  sp.initial_voltage = Volts{2.5};
  p->add_storage(std::make_unique<storage::Supercapacitor>("buf", sp), 0);
  return p;
}

/// The survey's full multi-source site: every ambient channel active, so one
/// synthesis pass feeds probes of any modality.
env::Environment full_site(std::uint64_t seed) {
  env::Environment e(seed, "full multi-source site");
  e.with_solar({})
      .with_indoor_light({})
      .with_wind({})
      .with_hvac_flow({})
      .with_thermal({})
      .with_vibration({})
      .with_rf({})
      .with_water_flow({});
  return e;
}

/// 12 probe variants x 1 scenario x 2 seeds, one simulated hour each: the
/// campaign shape where every variant replays the same (scenario, seed)
/// ambient timeline, so the trace cache compiles each timeline once and
/// shares it across all 12 platforms.
campaign::CampaignSpec probe_grid() {
  campaign::CampaignSpec spec;
  for (std::size_t variant = 0; variant < 12; ++variant)
    spec.platforms.push_back({"probe-" + std::to_string(variant),
                              [variant](std::uint64_t) {
                                return probe_platform(variant);
                              }});
  campaign::Scenario sc;
  sc.name = "site-hour";
  sc.environment = [](std::uint64_t seed) {
    return std::make_unique<env::Environment>(full_site(seed));
  };
  sc.duration = Seconds{3600.0};
  sc.options.dt = Seconds{1.0};
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {1, 2};
  spec.threads = 1;  // measure the single-core kernel, not the thread pool
  return spec;
}

void BM_Campaign_Grid(benchmark::State& state) {
  // The headline campaign kernel: compiled shared traces + LPT scheduling.
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    campaign::Campaign c(probe_grid());
    jobs += c.run().size();
    benchmark::DoNotOptimize(c.results().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(jobs) * 3600);
}
BENCHMARK(BM_Campaign_Grid)->Unit(benchmark::kMillisecond);

void BM_Campaign_Batched(benchmark::State& state) {
  // The batched lane kernel: the same probe grid with the platform-variant
  // axis advanced in lockstep blocks of lane_width (state.range(0)) lanes.
  // lane_width=1 runs one-lane blocks, so the ratio of the width-8 row to
  // the width-1 row is the lockstep-batching speedup — on byte-identical
  // results (the batched correctness gate). Timelines are
  // served from a pre-warmed on-disk cache so the ratio compares the step
  // kernels, not the (width-independent) trace synthesis cost.
  const auto width = static_cast<unsigned>(state.range(0));
  const std::string dir =
      std::filesystem::temp_directory_path() / "msehsim_bench_batched_cache";
  {
    auto warmup = probe_grid();
    warmup.shared_trace_cache = std::make_shared<env::TraceCache>(dir);
    campaign::Campaign cold(warmup);
    cold.run();
  }
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    auto spec = probe_grid();
    spec.shared_trace_cache = std::make_shared<env::TraceCache>(dir);
    spec.lane_width = width;
    campaign::Campaign c(spec);
    jobs += c.run().size();
    benchmark::DoNotOptimize(c.results().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(jobs) * 3600);
}
BENCHMARK(BM_Campaign_Batched)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_Campaign_Grid_WarmCache(benchmark::State& state) {
  // Same grid as BM_Campaign_Grid, but every (scenario, seed) timeline is
  // served from the persistent on-disk cache, memory-mapped instead of
  // synthesized. A cold campaign populates the cache before timing starts;
  // the timed iterations then never run an environment generator at all.
  // The gap to BM_Campaign_Grid is the persistent cache's whole-campaign
  // win on re-runs.
  const std::string dir =
      std::filesystem::temp_directory_path() / "msehsim_bench_trace_cache";
  std::filesystem::remove_all(dir);
  {
    auto warmup = probe_grid();
    warmup.shared_trace_cache = std::make_shared<env::TraceCache>(dir);
    campaign::Campaign cold(warmup);
    cold.run();
  }
  std::uint64_t jobs = 0;
  std::uint64_t hits = 0;
  for (auto _ : state) {
    auto spec = probe_grid();
    spec.shared_trace_cache = std::make_shared<env::TraceCache>(dir);
    campaign::Campaign c(spec);
    jobs += c.run().size();
    hits += c.trace_cache_stats().hits;
    benchmark::DoNotOptimize(c.results().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(jobs) * 3600);
  state.counters["cache_hits"] = static_cast<double>(hits);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_Campaign_Grid_WarmCache)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
