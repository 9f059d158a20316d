// E16 — observability overhead microbenchmarks.
//
// Not a paper artifact: the cost ledger for the run-health timeline and the
// Prometheus renderer. The acceptance gate is that BM_SystemA_DayRun_Timeline
// stays within 3% of BM_SystemA_DayRun_Base at the default
// one-sample-per-simulated-minute cadence — the sampler is a read-only
// periodic riding the existing event engine, so its per-day cost is 1440 row
// appends against 17280 simulation steps.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "env/environment.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/timeline.hpp"
#include "systems/catalog.hpp"
#include "systems/runner.hpp"

using namespace msehsim;

namespace {

constexpr double kDt = 5.0;
constexpr double kDay = 86400.0;

void BM_SystemA_DayRun_Base(benchmark::State& state) {
  // Local control run (same body as bench_simkernel's BM_SystemA_DayRun) so
  // the overhead ratio below compares two numbers from one process on one
  // thermal state, not across binaries.
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
BENCHMARK(BM_SystemA_DayRun_Base)->Unit(benchmark::kMillisecond);

void BM_SystemA_DayRun_Timeline(benchmark::State& state) {
  // The same day with the run-health timeline at its default cadence (one
  // sample per simulated minute, 1440 rows/day).
  for (auto _ : state) {
    auto platform = systems::build_system_a(1);
    auto env = env::Environment::outdoor(1);
    systems::RunOptions options;
    options.dt = Seconds{kDt};
    options.timeline_dt = Seconds{obs::Timeline::kDefaultCadenceS};
    benchmark::DoNotOptimize(
        run_platform(*platform, env, Seconds{kDay}, options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kDay / kDt));
}
BENCHMARK(BM_SystemA_DayRun_Timeline)->Unit(benchmark::kMillisecond);

void BM_PrometheusRender(benchmark::State& state) {
  // One scrape body from a real day-run snapshot plus its timeline rows —
  // the daemon's per-scrape cost.
  auto platform = systems::build_system_a(1);
  auto env = env::Environment::outdoor(1);
  systems::RunOptions options;
  options.dt = Seconds{kDt};
  options.timeline_dt = Seconds{obs::Timeline::kDefaultCadenceS};
  const auto result = run_platform(*platform, env, Seconds{kDay}, options);
  auto snapshot = systems::metrics_snapshot(result);
  snapshot.merge(result.timeline->metrics_snapshot());
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto text = obs::prometheus_text(snapshot);
    bytes += text.size();
    benchmark::DoNotOptimize(text.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["scrape_bytes"] =
      static_cast<double>(bytes) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_PrometheusRender);

}  // namespace

BENCHMARK_MAIN();
