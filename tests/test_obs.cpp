// Observability layer: metrics registry semantics, energy-ledger
// conservation on the surveyed systems (with and without faults armed),
// span tracing, and the derived failover / brownout metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "env/environment.hpp"
#include "manager/policies.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "storage/fuel_cell.hpp"
#include "systems/catalog.hpp"
#include "systems/runner.hpp"
#include "schedule_rows.hpp"

namespace msehsim {
namespace {

constexpr std::uint64_t kSeed = 42;

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Registry, CountersAccumulateAndSnapshotSorted) {
  obs::Registry reg;
  reg.counter("z.events").add(3);
  reg.counter("a.events").add();
  reg.counter("z.events").add(2);
  reg.gauge("m.level").set(1.5);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.rows.size(), 3u);
  EXPECT_EQ(snap.rows[0].name, "a.events");
  EXPECT_EQ(snap.rows[1].name, "m.level");
  EXPECT_EQ(snap.rows[2].name, "z.events");
  EXPECT_EQ(snap.rows[2].count, 5u);
  EXPECT_DOUBLE_EQ(snap.find("m.level")->value, 1.5);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(Registry, TypeCollisionThrows) {
  obs::Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), SpecError);
  EXPECT_THROW(reg.histogram("x", {1.0}), SpecError);
  reg.histogram("h", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("h", {1.0, 3.0}), SpecError);  // bounds drifted
  EXPECT_NO_THROW(reg.histogram("h", {1.0, 2.0}));
}

TEST(Histogram, BucketsObservationsAgainstSortedBounds) {
  obs::Histogram h({1.0, 10.0, 100.0});
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), SpecError);      // unsorted
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), SpecError);      // duplicate
  for (const double x : {0.5, 1.0, 5.0, 50.0, 1e6}) h.observe(x);
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);  // <= 1
  EXPECT_EQ(h.buckets()[1], 1u);  // <= 10
  EXPECT_EQ(h.buckets()[2], 1u);  // <= 100
  EXPECT_EQ(h.buckets()[3], 1u);  // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1e6);
}

TEST(Histogram, QuantileInterpolatesWithinTheHoldingBucket) {
  obs::Histogram h({1.0, 10.0, 100.0});
  for (const double x : {0.5, 1.0, 5.0, 50.0, 1e6}) h.observe(x);
  // count=5, buckets [2,1,1,1]. The median (target 2.5) lands in the
  // (1, 10] bucket, halfway through its single observation.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.5);
  // Target 4.5 reaches the overflow bucket, which interpolates over
  // [last bound clamped to data, max] = [100, 1e6].
  EXPECT_DOUBLE_EQ(h.quantile(0.9), 100.0 + 0.5 * (1e6 - 100.0));
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);  // q <= 0 -> min
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1e6);  // q >= 1 -> max
  EXPECT_DOUBLE_EQ(h.quantile(-3.0), 0.5);
  EXPECT_DOUBLE_EQ(h.quantile(2.0), 1e6);
}

TEST(Histogram, QuantileEdgeCases) {
  obs::Histogram empty({1.0, 2.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);  // empty -> 0 by contract

  // A single observation answers every quantile with itself: the bucket
  // edges clamp to the observed [min, max] (both 0.5).
  obs::Histogram single({1.0});
  single.observe(0.5);
  EXPECT_DOUBLE_EQ(single.quantile(0.25), 0.5);
  EXPECT_DOUBLE_EQ(single.quantile(0.75), 0.5);

  // Everything in the overflow bucket: interpolation spans [min, max]
  // because no finite bound bounds the data.
  obs::Histogram over({1.0});
  over.observe(10.0);
  over.observe(20.0);
  EXPECT_DOUBLE_EQ(over.quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(over.quantile(1.0), 20.0);
}

TEST(MetricsSnapshot, MergeAddsCountersAndKeepsGaugeMax) {
  obs::Registry a, b;
  a.counter("n").add(2);
  a.gauge("peak").set(3.0);
  a.histogram("lat", {1.0, 2.0}).observe(0.5);
  b.counter("n").add(5);
  b.counter("only_b").add(1);
  b.gauge("peak").set(7.0);
  b.histogram("lat", {1.0, 2.0}).observe(1.5);

  auto merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.find("n")->count, 7u);
  EXPECT_EQ(merged.find("only_b")->count, 1u);
  EXPECT_DOUBLE_EQ(merged.find("peak")->value, 7.0);
  const auto* lat = merged.find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 2u);
  EXPECT_EQ(lat->buckets[0], 1u);
  EXPECT_EQ(lat->buckets[1], 1u);
  EXPECT_DOUBLE_EQ(lat->min, 0.5);
  EXPECT_DOUBLE_EQ(lat->max, 1.5);

  // Merge is insensitive to which side a row came from (counter sums
  // commute; gauge max commutes).
  auto flipped = b.snapshot();
  flipped.merge(a.snapshot());
  EXPECT_EQ(merged.to_string(), flipped.to_string());

  obs::Registry mismatched;
  mismatched.gauge("n");
  auto bad = a.snapshot();
  EXPECT_THROW(bad.merge(mismatched.snapshot()), SpecError);
}

TEST(MetricsSnapshot, TextFormatsExpandHistograms) {
  obs::Registry reg;
  reg.counter("c").add(2);
  reg.histogram("h", {1.0}).observe(0.5);
  const auto snap = reg.snapshot();
  const auto text = snap.to_string();
  EXPECT_NE(text.find("c=2\n"), std::string::npos);
  EXPECT_NE(text.find("h.count=1\n"), std::string::npos);
  EXPECT_NE(text.find("h.le_1="), std::string::npos);
  EXPECT_NE(text.find("h.le_inf="), std::string::npos);
  const auto csv = snap.csv();
  EXPECT_EQ(csv.rfind("metric,value\n", 0), 0u);
  EXPECT_NE(csv.find("c,2\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Energy-flow ledger: conservation on the surveyed systems
// ---------------------------------------------------------------------------

/// Checks every conservation identity the ledger publishes, at the 1e-9
/// relative gate from the issue's acceptance criteria.
void expect_ledger_balances(const systems::RunResult& r) {
  const auto& ledger = r.ledger;
  EXPECT_LT(ledger.relative_residual(), 1e-9)
      << "bus residual " << ledger.residual_j() << " J";
  // Survey-level books: everything harvested (plus what loads demanded in
  // vain) is load + overhead + losses + waste + what the stores kept.
  const double books =
      ledger.harvested_j + ledger.unserved_j -
      (ledger.quiescent_j + ledger.rail_load_j + ledger.output_loss_j +
       ledger.wasted_j + ledger.storage_delta_j + ledger.storage_loss_j);
  EXPECT_LT(std::fabs(books) / std::max(1.0, ledger.harvested_j), 1e-9);
  // Each chain's joules split exactly across its own boundary.
  for (std::size_t i = 0; i < ledger.sources.size(); ++i) {
    EXPECT_LT(std::fabs(ledger.source_residual_j(i)) /
                  std::max(1.0, ledger.sources[i].transducer_j),
              1e-9)
        << ledger.sources[i].name;
  }
  // Shares partition delivered energy whenever anything flowed.
  if (ledger.harvested_j > 0.0) {
    double share_sum = 0.0;
    double delivered_sum = 0.0;
    for (const auto& s : ledger.sources) {
      EXPECT_GE(s.share, 0.0);
      share_sum += s.share;
      delivered_sum += s.delivered_j;
    }
    EXPECT_NEAR(share_sum, delivered_sum / ledger.harvested_j, 1e-12);
  }
  // The ledger's mirror of the headline numbers matches the headline.
  EXPECT_DOUBLE_EQ(ledger.harvested_j, r.harvested.value());
  EXPECT_DOUBLE_EQ(ledger.rail_load_j, r.load.value());
  EXPECT_DOUBLE_EQ(ledger.quiescent_j, r.quiescent.value());
  EXPECT_DOUBLE_EQ(ledger.wasted_j, r.wasted.value());
  EXPECT_DOUBLE_EQ(ledger.final_stored_j, r.final_stored.value());
  // unserved keeps the sub-threshold leftovers unmet drops, so it can only
  // be the larger of the two.
  EXPECT_GE(ledger.unserved_j + 1e-15, r.unmet.value());
}

TEST(EnergyLedger, SystemAConservesEnergyOverSixHours) {
  auto a = systems::build_system_a(kSeed);
  auto env = env::Environment::outdoor(kSeed);
  systems::RunOptions o;
  o.dt = Seconds{5.0};
  const auto r = systems::run_platform(*a, env, Seconds{6.0 * 3600.0}, o);
  EXPECT_GT(r.ledger.harvested_j, 0.0);
  EXPECT_EQ(r.ledger.sources.size(), a->input_count());
  expect_ledger_balances(r);
}

TEST(EnergyLedger, SystemBConservesEnergyOverSixHours) {
  auto b = systems::build_system_b(kSeed);
  auto env = env::Environment::indoor_industrial(kSeed);
  systems::RunOptions o;
  o.dt = Seconds{5.0};
  const auto r = systems::run_platform(*b, env, Seconds{6.0 * 3600.0}, o);
  EXPECT_GT(r.ledger.harvested_j, 0.0);
  expect_ledger_balances(r);
}

TEST(EnergyLedger, SystemAConservesEnergyUnderFaultInjection) {
  auto a = systems::build_system_a(kSeed);
  auto env = env::Environment::outdoor(kSeed);
  auto inj = reference::schedule_rows(
                 "3600,harvester_intermittent,input:0,0.3,,,\n"
                 "7200,harvester_degrade,input:1,0.4,,,\n"
                 "10000,converter_thermal_shutdown,input:2,,2000,,\n"
                 "12000,storage_leakage_spike,storage:0,20,4000,,\n")
                 .build_injector(kSeed, a->fault_targets());
  systems::RunOptions o;
  o.dt = Seconds{5.0};
  const auto r =
      systems::run_platform(*a, env, Seconds{6.0 * 3600.0}, o, inj.get());
  EXPECT_GT(r.faults.injected.total(), 0u);
  expect_ledger_balances(r);
}

TEST(EnergyLedger, SystemBConservesEnergyUnderFaultInjection) {
  auto b = systems::build_system_b(kSeed);
  auto env = env::Environment::indoor_industrial(kSeed);
  auto inj = reference::schedule_rows(
                 "600,harvester_intermittent,input:0,0.6,,,\n"
                 "5400,harvester_stuck_short,input:1,,,,\n")
                 .build_injector(kSeed, b->fault_targets());
  systems::RunOptions o;
  o.dt = Seconds{5.0};
  const auto r =
      systems::run_platform(*b, env, Seconds{6.0 * 3600.0}, o, inj.get());
  EXPECT_GT(r.faults.injected.total(), 0u);
  expect_ledger_balances(r);
}

TEST(EnergyLedger, ToStringCarriesAggregateAndSourceRows) {
  auto a = systems::build_system_a(kSeed);
  auto env = env::Environment::outdoor(kSeed);
  systems::RunOptions o;
  o.dt = Seconds{5.0};
  const auto r = systems::run_platform(*a, env, Seconds{3600.0}, o);
  const auto text = systems::to_string(r);
  for (const char* needle :
       {"ledger.harvested_j=", "ledger.residual_j=", "ledger.source[0].name=",
        "ledger.source[0].share=", "ledger.source[0].mpp_cache_hits="})
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
}

// ---------------------------------------------------------------------------
// Derived metrics: mean time to failover, time to first brownout
// ---------------------------------------------------------------------------

TEST(MeanTimeToFailover, PolicyMeasuresOnsetToSwitchInLatency) {
  manager::FailoverPolicy::Params p;
  p.dead_time = Seconds{600.0};
  manager::FailoverPolicy policy(p);
  storage::FuelCell cell("fc", storage::FuelCell::Params{});
  // Outage begins at t=100; the debounced switch-in lands at t=700.
  policy.update(Seconds{0.0}, Watts{1e-3}, 0.8, cell);
  policy.update(Seconds{100.0}, Watts{0.0}, 0.8, cell);
  policy.update(Seconds{700.0}, Watts{0.0}, 0.8, cell);
  ASSERT_TRUE(cell.enabled());
  EXPECT_EQ(policy.failover_latency_count(), 1u);
  EXPECT_DOUBLE_EQ(policy.failover_latency_total().value(), 600.0);
}

TEST(MeanTimeToFailover, SocOnlyFailoverHasNoMeasurableOnset) {
  manager::FailoverPolicy policy;
  storage::FuelCell cell("fc", storage::FuelCell::Params{});
  // Primary healthy, buffer low: failover fires but no outage started it.
  policy.update(Seconds{0.0}, Watts{1e-3}, 0.1, cell);
  ASSERT_TRUE(cell.enabled());
  EXPECT_EQ(policy.failovers(), 1u);
  EXPECT_EQ(policy.failover_latency_count(), 0u);
}

TEST(MeanTimeToFailover, SurfacesThroughRunResult) {
  auto a = systems::build_system_a(kSeed);
  manager::FailoverPolicy::Params fp;
  fp.dead_time = Seconds{600.0};
  a->set_failover_policy(manager::FailoverPolicy(fp), 2);
  auto env = env::Environment::outdoor(kSeed);
  auto inj = reference::schedule_rows("7200,harvester_stuck_short,input:*,,,,\n")
                 .build_injector(kSeed, a->fault_targets());
  systems::RunOptions o;
  o.dt = Seconds{5.0};
  const auto r =
      systems::run_platform(*a, env, Seconds{86400.0}, o, inj.get());
  ASSERT_GE(r.faults.failovers, 1u);
  ASSERT_GE(r.faults.failover_latency_count, 1u);
  // Latency is at least the debounce dead time and is the mean of totals.
  EXPECT_GE(r.faults.mean_time_to_failover_s(), 600.0 - 1e-9);
  EXPECT_DOUBLE_EQ(
      r.faults.mean_time_to_failover_s(),
      r.faults.failover_latency_total_s /
          static_cast<double>(r.faults.failover_latency_count));
  EXPECT_NE(systems::to_string(r).find("faults.mean_time_to_failover_s="),
            std::string::npos);
  expect_ledger_balances(r);
}

TEST(TimeToFirstBrownout, MinusOneWhenNoneAndWithinRunWhenSome) {
  auto a = systems::build_system_a(kSeed);
  auto env = env::Environment::outdoor(kSeed);
  systems::RunOptions o;
  o.dt = Seconds{5.0};
  const auto r = systems::run_platform(*a, env, Seconds{3600.0}, o);
  if (r.brownouts == 0) {
    EXPECT_DOUBLE_EQ(r.time_to_first_brownout_s, -1.0);
  } else {
    EXPECT_GE(r.time_to_first_brownout_s, 0.0);
    EXPECT_LE(r.time_to_first_brownout_s, r.duration.value());
  }
}

// ---------------------------------------------------------------------------
// metrics_snapshot: runs fold onto the registry deterministically
// ---------------------------------------------------------------------------

TEST(MetricsSnapshotOfRun, CoversEveryFieldAndRepeatsByteForByte) {
  auto a = systems::build_system_a(kSeed);
  auto env = env::Environment::outdoor(kSeed);
  systems::RunOptions o;
  o.dt = Seconds{5.0};
  const auto r = systems::run_platform(*a, env, Seconds{3600.0}, o);
  const auto snap = systems::metrics_snapshot(r);
  for (const auto& field : systems::run_result_fields()) {
    const auto* row = snap.find(field.name);
    ASSERT_NE(row, nullptr) << field.name;
    if (field.integral) {
      EXPECT_EQ(static_cast<double>(row->count), field.get(r)) << field.name;
    } else {
      EXPECT_DOUBLE_EQ(row->value, field.get(r)) << field.name;
    }
  }
  EXPECT_NE(snap.find("ledger.source[0].share"), nullptr);
  EXPECT_EQ(snap.to_string(), systems::metrics_snapshot(r).to_string());
}

// ---------------------------------------------------------------------------
// Span tracing
// ---------------------------------------------------------------------------

TEST(TraceCollector, DisabledByDefaultAndRecordsNothing) {
  auto& collector = obs::TraceCollector::instance();
  ASSERT_FALSE(collector.enabled());
  { obs::Span span{"ignored", "test"}; }
  EXPECT_EQ(collector.event_count(), 0u);
}

TEST(TraceCollector, CapturesSpansAndEmitsChromeJson) {
  auto& collector = obs::TraceCollector::instance();
  collector.enable();
  collector.set_thread_name("test-main");
  {
    obs::Span outer{"outer", "test", "\"k\": 1"};
    obs::Span inner{"inner", "test"};
  }
  EXPECT_EQ(collector.event_count(), 2u);
  const auto json = collector.chrome_trace_json();
  collector.disable();
  for (const char* needle :
       {"\"traceEvents\"", "\"ph\": \"X\"", "\"ph\": \"M\"", "\"outer\"",
        "\"inner\"", "\"test-main\"", "\"k\": 1", "\"displayTimeUnit\""})
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  // Inner closed first, so it precedes outer in the buffer and nests inside
  // its parent's interval.
  EXPECT_LT(json.find("\"inner\""), json.find("\"outer\""));
}

TEST(TraceCollector, EnableResetsBufferAndCapacityCapsIt) {
  auto& collector = obs::TraceCollector::instance();
  collector.enable();
  { obs::Span span{"stale", "test"}; }
  EXPECT_EQ(collector.event_count(), 1u);
  collector.enable();  // re-enable starts a fresh trace
  EXPECT_EQ(collector.event_count(), 0u);

  collector.set_capacity(2);
  for (int i = 0; i < 5; ++i) obs::Span span{"burst", "test"};
  EXPECT_EQ(collector.event_count(), 2u);
  EXPECT_EQ(collector.dropped(), 3u);
  collector.set_capacity(1u << 20);
  collector.disable();
}

TEST(TraceCollector, DrainsPerThreadBuffersInThreadIdOrder) {
  // Every thread records into the one log; the exports order it by thread
  // id, so spans from a worker thread land after the main thread's
  // regardless of wall-clock interleaving.
  auto& collector = obs::TraceCollector::instance();
  collector.enable();
  const std::uint32_t main_tid = collector.thread_id();
  { obs::Span span{"from-main", "test"}; }
  std::uint32_t worker_tid = 0;
  std::thread worker([&] {
    worker_tid = collector.thread_id();
    collector.set_thread_name("worker");
    obs::Span span{"from-worker", "test"};
  });
  worker.join();
  EXPECT_NE(main_tid, worker_tid);
  EXPECT_EQ(collector.event_count(), 2u);
  const auto json = collector.chrome_trace_json();
  collector.disable();
  const auto main_pos = json.find("\"from-main\"");
  const auto worker_pos = json.find("\"from-worker\"");
  ASSERT_NE(main_pos, std::string::npos);
  ASSERT_NE(worker_pos, std::string::npos);
  if (main_tid < worker_tid)
    EXPECT_LT(main_pos, worker_pos);
  else
    EXPECT_GT(main_pos, worker_pos);
  EXPECT_NE(json.find("\"worker\""), std::string::npos);
}

TEST(TraceCollector, OneSessionKeepsOneNamePerThreadAcrossThreadPools) {
  // A traced campaign names its workers on every run: fresh pool threads,
  // or the calling thread when it runs single-threaded. Over several such
  // rounds under one enable(), the export must still carry one thread_name
  // row per tid, in tid order, with each thread's events in record order.
  auto& collector = obs::TraceCollector::instance();
  collector.enable();
  constexpr int kRounds = 5;
  constexpr int kThreads = 4;
  constexpr int kSpans = 3;
  for (int round = 0; round < kRounds; ++round) {
    collector.set_thread_name("caller");
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&collector, round, t] {
        collector.set_thread_name("worker-" + std::to_string(t));
        for (int i = 0; i < kSpans; ++i)
          obs::Span span{"pool_span", "test",
                         "\"seq\": " + std::to_string(round * kSpans + i)};
      });
    }
    for (auto& thread : pool) thread.join();
  }
  const auto json = collector.chrome_trace_json();
  const auto events = collector.snapshot_events();
  collector.disable();

  std::vector<std::uint32_t> named;
  const std::string row = "{\"name\": \"thread_name\", \"ph\": \"M\", "
                          "\"pid\": 1, \"tid\": ";
  for (auto at = json.find(row); at != std::string::npos;
       at = json.find(row, at + 1))
    named.push_back(static_cast<std::uint32_t>(
        std::stoul(json.substr(at + row.size()))));
  ASSERT_FALSE(named.empty());
  for (std::size_t i = 1; i < named.size(); ++i)
    EXPECT_LT(named[i - 1], named[i]) << "one thread_name row per tid";

  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kRounds * kThreads * kSpans));
  std::map<std::uint32_t, int> last_seq;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (i > 0) {
      EXPECT_GE(e.tid, events[i - 1].tid);
    }
    EXPECT_TRUE(std::binary_search(named.begin(), named.end(), e.tid))
        << "tid " << e.tid << " has no thread_name row";
    const int seq = std::stoi(e.args_json.substr(e.args_json.find(':') + 1));
    const auto [it, first] = last_seq.try_emplace(e.tid, seq);
    if (!first) {
      EXPECT_GT(seq, it->second) << "tid " << e.tid;
    }
    it->second = seq;
  }

  // Thread ids belong to the session: the next one numbers from zero.
  collector.enable();
  EXPECT_EQ(collector.thread_id(), 0u);
  collector.disable();
}

TEST(TraceCollector, RunPlatformEmitsSpansWhenEnabled) {
  auto& collector = obs::TraceCollector::instance();
  collector.enable();
  auto a = systems::build_system_a(kSeed);
  auto env = env::Environment::outdoor(kSeed);
  systems::RunOptions o;
  o.dt = Seconds{5.0};
  (void)systems::run_platform(*a, env, Seconds{3600.0}, o);
  const auto json = collector.chrome_trace_json();
  collector.disable();
  EXPECT_NE(json.find("\"run_platform\""), std::string::npos);
  EXPECT_NE(json.find("\"platform.step\""), std::string::npos);
}

TEST(TraceCollector, SnapshotEventsReturnsCompleteSpansInTidOrder) {
  auto& collector = obs::TraceCollector::instance();
  collector.enable();
  {
    obs::Span outer{"outer_snapshot_test", "test"};
    { obs::Span inner{"inner_snapshot_test", "test"}; }
  }
  const auto events = collector.snapshot_events();
  collector.disable();
  ASSERT_GE(events.size(), 2u);
  bool saw_outer = false, saw_inner = false;
  for (const auto& e : events) {
    if (e.name == "outer_snapshot_test") saw_outer = true;
    if (e.name == "inner_snapshot_test") saw_inner = true;
    EXPECT_GE(e.dur_us, 0.0);
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  // tid-ordered drain: tids never decrease across the snapshot.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].tid, events[i - 1].tid);
}

TEST(TraceCollector, SpanOpenAcrossEnableIsDropped) {
  // A span that started in an ended session has no place on the new
  // session's clock: recording it would export the old start with a
  // duration measured across two epochs.
  auto& collector = obs::TraceCollector::instance();
  collector.enable();
  {
    obs::Span span{"straddles_enable", "test"};
    collector.enable();
  }
  EXPECT_EQ(collector.event_count(), 0u);
  { obs::Span span{"after_enable", "test"}; }
  const auto events = collector.snapshot_events();
  collector.disable();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "after_enable");
  EXPECT_GE(events[0].ts_us, 0.0);
  EXPECT_GE(events[0].dur_us, 0.0);
}

TEST(TraceCollector, ReenableWhileSpansAreOpenIsRaceFree) {
  // enable() re-anchors the epoch while spans on other threads are open
  // and closing. The check is the ThreadSanitizer build, which reports any
  // unsynchronized access to the epoch or the log here as a data race.
  auto& collector = obs::TraceCollector::instance();
  collector.enable();
  std::atomic<int> running{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> spanners;
  for (int t = 0; t < 2; ++t) {
    spanners.emplace_back([&running, &done] {
      bool counted = false;
      while (!done.load(std::memory_order_relaxed)) {
        {
          obs::Span outer{"reenable_outer", "test"};
          obs::Span inner{"reenable_inner", "test"};
          std::this_thread::yield();  // let enable() land while both are open
        }
        if (!counted) running.fetch_add(1, std::memory_order_relaxed);
        counted = true;
      }
    });
  }
  std::thread enabler([&collector, &running, &done] {
    // Re-enable only once both spanners are inside their loops.
    while (running.load(std::memory_order_relaxed) < 2)
      std::this_thread::yield();
    for (int i = 0; i < 1000; ++i) {
      collector.enable();
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_relaxed);
  });
  enabler.join();
  for (auto& thread : spanners) thread.join();

  // The collector still works after the storm: a fresh session holds
  // exactly what it records.
  collector.enable();
  { obs::Span span{"after_reenable", "test"}; }
  EXPECT_EQ(collector.event_count(), 1u);
  collector.disable();
}

// ---------------------------------------------------------------------------
// Timeline: deterministic fixed-cadence sampling container
// ---------------------------------------------------------------------------

TEST(Timeline, ValidatesCadenceColumnsAndRowWidth) {
  EXPECT_THROW(obs::Timeline(Seconds{0.0}, {"a"}), SpecError);
  EXPECT_THROW(obs::Timeline(Seconds{-1.0}, {"a"}), SpecError);
  EXPECT_THROW(obs::Timeline(Seconds{1.0}, {}), SpecError);

  obs::Timeline tl(Seconds{1.0}, {"a", "b"});
  const double row[1] = {1.0};
  EXPECT_THROW(tl.append(0.0, row, 1), SpecError);
  EXPECT_EQ(tl.sample_count(), 0u);
}

TEST(Timeline, FindColumnAndAccessors) {
  obs::Timeline tl(Seconds{0.5}, {"soc", "stored_j"});
  EXPECT_EQ(tl.column_count(), 2u);
  EXPECT_EQ(tl.find_column("soc"), 0u);
  EXPECT_EQ(tl.find_column("stored_j"), 1u);
  EXPECT_EQ(tl.find_column("missing"), obs::Timeline::npos);
  EXPECT_DOUBLE_EQ(tl.cadence().value(), 0.5);

  const double r0[2] = {0.5, 2.0};
  const double r1[2] = {0.25, 1.5};
  tl.append(0.0, r0, 2);
  tl.append(0.5, r1, 2);
  ASSERT_EQ(tl.sample_count(), 2u);
  EXPECT_DOUBLE_EQ(tl.time()[1], 0.5);
  EXPECT_DOUBLE_EQ(tl.column(0)[1], 0.25);
  EXPECT_DOUBLE_EQ(tl.column(1)[0], 2.0);
}

TEST(Timeline, CsvIsByteExact) {
  obs::Timeline tl(Seconds{0.5}, {"a", "b"});
  EXPECT_EQ(tl.csv(), "t_s,a,b\n");  // no samples: the header alone
  const double r0[2] = {1.5, 2.0};
  const double r1[2] = {0.25, -0.5};
  tl.append(0.0, r0, 2);
  tl.append(0.5, r1, 2);
  EXPECT_EQ(tl.csv(), "t_s,a,b\n0,1.5,2\n0.5,0.25,-0.5\n");
}

// ---------------------------------------------------------------------------
// Run-health timeline wired through run_platform
// ---------------------------------------------------------------------------

TEST(RunTimeline, OffByDefaultOnWhenRequested) {
  auto a = systems::build_system_a(kSeed);
  auto env = env::Environment::outdoor(kSeed);
  systems::RunOptions o;
  o.dt = Seconds{5.0};
  const auto off = systems::run_platform(*a, env, Seconds{3600.0}, o);
  EXPECT_EQ(off.timeline, nullptr);

  auto a2 = systems::build_system_a(kSeed);
  auto env2 = env::Environment::outdoor(kSeed);
  o.timeline_dt = Seconds{60.0};
  const auto on = systems::run_platform(*a2, env2, Seconds{3600.0}, o);
  ASSERT_NE(on.timeline, nullptr);
  // Periodics fire within [now, now + dt): samples land at t = 0, 60, ...,
  // 3540 — the 3600 s boundary belongs to the step that never runs.
  EXPECT_EQ(on.timeline->sample_count(), 60u);
  EXPECT_DOUBLE_EQ(on.timeline->time().front(), 0.0);
  EXPECT_DOUBLE_EQ(on.timeline->time().back(), 3540.0);
  EXPECT_DOUBLE_EQ(on.timeline->cadence().value(), 60.0);
}

TEST(RunTimeline, SchemaCoversStorageBackupAndEverySource) {
  auto a = systems::build_system_a(kSeed);
  auto env = env::Environment::outdoor(kSeed);
  systems::RunOptions o;
  o.dt = Seconds{5.0};
  o.timeline_dt = Seconds{300.0};
  const auto r = systems::run_platform(*a, env, Seconds{6.0 * 3600.0}, o);
  ASSERT_NE(r.timeline, nullptr);
  const auto& tl = *r.timeline;
  for (const char* col :
       {"soc", "stored_j", "unserved_j", "backup_stage", "bus_voltage_v"})
    EXPECT_NE(tl.find_column(col), obs::Timeline::npos) << col;
  for (std::size_t i = 0; i < a->input_count(); ++i) {
    const std::string base = "source[" + std::to_string(i) + "]";
    EXPECT_NE(tl.find_column(base + ".harvested_w"), obs::Timeline::npos);
    EXPECT_NE(tl.find_column(base + ".delivered_w"), obs::Timeline::npos);
  }

  // Physical sanity: SoC in [0, 1], powers are trailing averages that start
  // at zero (no previous sample to difference against).
  const auto& soc = tl.column(tl.find_column("soc"));
  for (const double v : soc) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  const auto& h0 = tl.column(tl.find_column("source[0].harvested_w"));
  EXPECT_DOUBLE_EQ(h0.front(), 0.0);
  double peak = 0.0;
  for (const double v : h0) peak = std::max(peak, v);
  EXPECT_GT(peak, 0.0);  // an outdoor day run harvests something
}

TEST(RunTimeline, SamplingNeverChangesRunResultBytes) {
  systems::RunOptions off_o;
  off_o.dt = Seconds{5.0};
  systems::RunOptions on_o = off_o;
  on_o.timeline_dt = Seconds{60.0};

  {
    auto a = systems::build_system_a(kSeed);
    auto env = env::Environment::outdoor(kSeed);
    const auto off = systems::run_platform(*a, env, Seconds{6.0 * 3600.0},
                                           off_o);
    auto a2 = systems::build_system_a(kSeed);
    auto env2 = env::Environment::outdoor(kSeed);
    const auto on = systems::run_platform(*a2, env2, Seconds{6.0 * 3600.0},
                                          on_o);
    EXPECT_EQ(systems::to_string(off), systems::to_string(on));
    EXPECT_EQ(systems::metrics_snapshot(off).csv(),
              systems::metrics_snapshot(on).csv());
  }

  // Faulted run: the injector's one-shot sequence numbers must be
  // unaffected by the sampler's (periodic) registration.
  {
    auto run = [&](const systems::RunOptions& base) {
      auto b = systems::build_system_b(kSeed);
      auto env = env::Environment::indoor_industrial(kSeed);
      auto inj = reference::schedule_rows(
                     "600,harvester_intermittent,input:0,0.6,,,\n"
                     "5400,harvester_stuck_short,input:1,,,,\n")
                     .build_injector(kSeed, b->fault_targets());
      return systems::to_string(systems::run_platform(
          *b, env, Seconds{6.0 * 3600.0}, base, inj.get()));
    };
    EXPECT_EQ(run(off_o), run(on_o));
  }
}

}  // namespace
}  // namespace msehsim
