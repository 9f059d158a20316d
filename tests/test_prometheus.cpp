// Prometheus text exposition: renderer byte-exactness, name/label mapping,
// cumulative histogram expansion, the strict lint (promtool-style parse)
// over both synthetic documents and everything the repo actually emits, and
// the end-to-end campaign scrape with leak-detector rows.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/error.hpp"
#include "env/environment.hpp"
#include "fault/injector.hpp"
#include "harvest/transducers.hpp"
#include "node/sensor_node.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "power/chain.hpp"
#include "power/converter.hpp"
#include "power/mppt.hpp"
#include "storage/supercapacitor.hpp"
#include "systems/catalog.hpp"
#include "systems/platform.hpp"
#include "systems/runner.hpp"

namespace msehsim {
namespace {

constexpr std::uint64_t kSeed = 42;

// ---------------------------------------------------------------------------
// Renderer: exact bytes for each metric kind
// ---------------------------------------------------------------------------

TEST(PrometheusText, CounterAndGaugeRenderWithHeaders) {
  obs::Registry registry;
  registry.counter("campaign.jobs").add(3);
  registry.gauge("soc.min").set(0.25);
  const auto text = obs::prometheus_text(registry.snapshot());
  EXPECT_EQ(text,
            "# HELP msehsim_campaign_jobs_total msehsim metric campaign.jobs\n"
            "# TYPE msehsim_campaign_jobs_total counter\n"
            "msehsim_campaign_jobs_total 3\n"
            "# HELP msehsim_soc_min msehsim metric soc.min\n"
            "# TYPE msehsim_soc_min gauge\n"
            "msehsim_soc_min 0.25\n");
  EXPECT_EQ(obs::prometheus_lint(text), "");
}

TEST(PrometheusText, BracketSegmentsBecomeIndexLabels) {
  obs::Registry registry;
  registry.gauge("ledger.source[0].share").set(0.75);
  registry.gauge("ledger.source[1].share").set(0.25);
  const auto text = obs::prometheus_text(registry.snapshot());
  EXPECT_EQ(
      text,
      "# HELP msehsim_ledger_source_share msehsim metric "
      "ledger.source[0].share\n"
      "# TYPE msehsim_ledger_source_share gauge\n"
      "msehsim_ledger_source_share{index=\"0\"} 0.75\n"
      "msehsim_ledger_source_share{index=\"1\"} 0.25\n");
  EXPECT_EQ(obs::prometheus_lint(text), "");
}

TEST(PrometheusText, NestedBracketsGetOrdinalLabelNames) {
  obs::Registry registry;
  registry.gauge("grid[2].cell[7].soc").set(0.5);
  const auto text = obs::prometheus_text(registry.snapshot());
  EXPECT_NE(text.find("msehsim_grid_cell_soc{index=\"2\",index2=\"7\"} 0.5\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(obs::prometheus_lint(text), "");
}

TEST(PrometheusText, HistogramExpandsToCumulativeBuckets) {
  obs::Registry registry;
  auto& h = registry.histogram("lat", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(100.0);
  const auto text = obs::prometheus_text(registry.snapshot());
  EXPECT_EQ(text,
            "# HELP msehsim_lat msehsim metric lat\n"
            "# TYPE msehsim_lat histogram\n"
            "msehsim_lat_bucket{le=\"1\"} 1\n"
            "msehsim_lat_bucket{le=\"10\"} 2\n"
            "msehsim_lat_bucket{le=\"+Inf\"} 3\n"
            "msehsim_lat_sum 105.5\n"
            "msehsim_lat_count 3\n");
  EXPECT_EQ(obs::prometheus_lint(text), "");
}

TEST(PrometheusText, CounterAlreadyEndingTotalIsNotDoubled) {
  obs::Registry registry;
  registry.counter("steps.total").add(7);
  const auto text = obs::prometheus_text(registry.snapshot());
  EXPECT_NE(text.find("msehsim_steps_total 7\n"), std::string::npos);
  EXPECT_EQ(text.find("_total_total"), std::string::npos);
  EXPECT_EQ(obs::prometheus_lint(text), "");
}

TEST(PrometheusText, NonFiniteGaugesUseExpositionSpellings) {
  obs::Registry registry;
  registry.gauge("a").set(std::nan(""));
  registry.gauge("b").set(std::numeric_limits<double>::infinity());
  registry.gauge("c").set(-std::numeric_limits<double>::infinity());
  const auto text = obs::prometheus_text(registry.snapshot());
  EXPECT_NE(text.find("msehsim_a NaN\n"), std::string::npos);
  EXPECT_NE(text.find("msehsim_b +Inf\n"), std::string::npos);
  EXPECT_NE(text.find("msehsim_c -Inf\n"), std::string::npos);
  EXPECT_EQ(obs::prometheus_lint(text), "");
}

TEST(PrometheusText, KindCollisionAcrossSanitizedNamesThrows) {
  obs::Registry registry;
  registry.gauge("a.b").set(1.0);
  registry.histogram("a_b", {1.0}).observe(0.5);
  EXPECT_THROW((void)obs::prometheus_text(registry.snapshot()), SpecError);
}

TEST(PrometheusText, CustomPrefixNamespacesEveryFamily) {
  obs::Registry registry;
  registry.counter("jobs").add(1);
  const auto text = obs::prometheus_text(registry.snapshot(), "acme");
  EXPECT_NE(text.find("# TYPE acme_jobs_total counter\n"), std::string::npos);
  EXPECT_EQ(obs::prometheus_lint(text), "");
}

TEST(PrometheusText, EmptySnapshotRendersEmptyDocument) {
  const auto text = obs::prometheus_text(obs::MetricsSnapshot{});
  EXPECT_EQ(text, "");
  EXPECT_EQ(obs::prometheus_lint(text), "");
}

// ---------------------------------------------------------------------------
// Lint: accepts valid documents, pinpoints the first violation
// ---------------------------------------------------------------------------

TEST(PrometheusLint, AcceptsCommentsBlankLinesAndTimestamps) {
  const std::string text =
      "# scraped by msehsim tests\n"
      "\n"
      "# HELP m a metric\n"
      "# TYPE m gauge\n"
      "m{tag=\"x\\ny\\\"z\\\\\"} 1.5 1700000000000\n";
  EXPECT_EQ(obs::prometheus_lint(text), "");
}

TEST(PrometheusLint, RejectsMissingTrailingNewline) {
  const auto message = obs::prometheus_lint("# TYPE m gauge\nm 1");
  EXPECT_NE(message.find("newline"), std::string::npos) << message;
}

TEST(PrometheusLint, RejectsSampleBeforeType) {
  const auto message = obs::prometheus_lint("m 1\n");
  EXPECT_NE(message.find("before any # TYPE"), std::string::npos) << message;
}

TEST(PrometheusLint, RejectsUnknownTypeAndDuplicateHeaders) {
  EXPECT_NE(obs::prometheus_lint("# TYPE m widget\nm 1\n").find("unknown type"),
            std::string::npos);
  EXPECT_NE(obs::prometheus_lint("# HELP m a\n# HELP m b\n# TYPE m gauge\nm 1\n")
                .find("duplicate HELP"),
            std::string::npos);
  EXPECT_NE(obs::prometheus_lint("# TYPE m gauge\n# TYPE m gauge\nm 1\n")
                .find("duplicate TYPE"),
            std::string::npos);
}

TEST(PrometheusLint, RejectsHelpAfterSamplesAndInterleavedFamilies) {
  EXPECT_NE(obs::prometheus_lint("# TYPE m gauge\nm 1\n# HELP m late\n")
                .find("after samples"),
            std::string::npos);
  const std::string interleaved =
      "# TYPE a gauge\na 1\n"
      "# TYPE b gauge\nb 1\n"
      "# TYPE a gauge\na{x=\"1\"} 2\n";
  EXPECT_NE(obs::prometheus_lint(interleaved).find("interleaved"),
            std::string::npos);
}

TEST(PrometheusLint, RejectsBadNamesLabelsAndEscapes) {
  EXPECT_NE(obs::prometheus_lint("# TYPE m gauge\n9m 1\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(
      obs::prometheus_lint("# TYPE m gauge\nm{l=\"a\\qb\"} 1\n")
          .find("invalid escape"),
      std::string::npos);
  EXPECT_NE(obs::prometheus_lint("# TYPE m gauge\nm{l=\"a\" 1\n")
                .find("expected ',' or '}'"),
            std::string::npos);
  EXPECT_NE(obs::prometheus_lint("# TYPE m gauge\nm one\n")
                .find("unparseable value"),
            std::string::npos);
  EXPECT_NE(obs::prometheus_lint("# TYPE m gauge\nm 1 12:00\n")
                .find("malformed timestamp"),
            std::string::npos);
}

TEST(PrometheusLint, RejectsDuplicateSeriesAndStraySamples) {
  EXPECT_NE(obs::prometheus_lint("# TYPE m gauge\nm 1\nm 2\n")
                .find("duplicate series"),
            std::string::npos);
  // Same label set in a different order is still the same series.
  EXPECT_NE(obs::prometheus_lint(
                "# TYPE m gauge\nm{a=\"1\",b=\"2\"} 1\nm{b=\"2\",a=\"1\"} 2\n")
                .find("duplicate series"),
            std::string::npos);
  EXPECT_NE(obs::prometheus_lint("# TYPE m gauge\nother 1\n")
                .find("outside family"),
            std::string::npos);
}

TEST(PrometheusLint, RejectsNegativeOrNaNCounters) {
  EXPECT_NE(obs::prometheus_lint("# TYPE c counter\nc -1\n")
                .find("negative or NaN"),
            std::string::npos);
  EXPECT_NE(obs::prometheus_lint("# TYPE c counter\nc NaN\n")
                .find("negative or NaN"),
            std::string::npos);
  EXPECT_EQ(obs::prometheus_lint("# TYPE g gauge\ng -1\n"), "");
}

TEST(PrometheusLint, EnforcesHistogramStructure) {
  const std::string valid =
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1\n"
      "h_bucket{le=\"+Inf\"} 3\n"
      "h_sum 4.5\n"
      "h_count 3\n";
  EXPECT_EQ(obs::prometheus_lint(valid), "");

  // le values must ascend.
  EXPECT_NE(obs::prometheus_lint("# TYPE h histogram\n"
                                 "h_bucket{le=\"10\"} 1\n"
                                 "h_bucket{le=\"1\"} 2\n"
                                 "h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n")
                .find("not ascending"),
            std::string::npos);
  // Cumulative counts cannot decrease.
  EXPECT_NE(obs::prometheus_lint("# TYPE h histogram\n"
                                 "h_bucket{le=\"1\"} 2\n"
                                 "h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n")
                .find("decreased"),
            std::string::npos);
  // The +Inf bucket must exist and equal _count.
  EXPECT_NE(obs::prometheus_lint("# TYPE h histogram\n"
                                 "h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n")
                .find("+Inf"),
            std::string::npos);
  EXPECT_NE(obs::prometheus_lint("# TYPE h histogram\n"
                                 "h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n")
                .find("!= _count"),
            std::string::npos);
  // _sum and _count are mandatory.
  EXPECT_NE(obs::prometheus_lint("# TYPE h histogram\n"
                                 "h_bucket{le=\"+Inf\"} 1\nh_count 1\n")
                .find("_sum"),
            std::string::npos);
  EXPECT_NE(obs::prometheus_lint("# TYPE h histogram\n"
                                 "h_bucket{le=\"+Inf\"} 1\nh_sum 1\n")
                .find("_count"),
            std::string::npos);
  // A bucket without an le label is malformed.
  EXPECT_NE(obs::prometheus_lint("# TYPE h histogram\n"
                                 "h_bucket 1\n"
                                 "h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n")
                .find("le label"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Real snapshots: everything the repo emits must pass the strict parse
// ---------------------------------------------------------------------------

TEST(PrometheusText, RunResultSnapshotLintsClean) {
  auto a = systems::build_system_a(kSeed);
  auto env = env::Environment::outdoor(kSeed);
  systems::RunOptions o;
  o.dt = Seconds{5.0};
  const auto r = systems::run_platform(*a, env, Seconds{6.0 * 3600.0}, o);
  const auto text = obs::prometheus_text(systems::metrics_snapshot(r));
  EXPECT_EQ(obs::prometheus_lint(text), "") << text.substr(0, 2000);
  EXPECT_NE(text.find("msehsim_ledger_source_share{index=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("msehsim_brownouts_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End to end: a faulted batched campaign's scrape body
// ---------------------------------------------------------------------------

std::unique_ptr<systems::Platform> mini_platform() {
  systems::PlatformSpec spec;
  spec.name = "mini";
  spec.quiescent_current = Amps{2e-6};
  auto p = std::make_unique<systems::Platform>(spec);
  p->add_input(std::make_unique<power::InputChain>(
      std::make_unique<harvest::PvPanel>("pv", harvest::PvPanel::Params{}),
      std::make_unique<power::OracleMppt>(),
      power::Converter::smart_buck_boost("fe"), Seconds{5.0}));
  storage::Supercapacitor::Params sp;
  sp.main_capacitance = Farads{10.0};
  sp.slow_capacitance = Farads{0.0};
  sp.initial_voltage = Volts{3.0};
  p->add_storage(std::make_unique<storage::Supercapacitor>("buf", sp), 0);
  p->set_output(
      power::OutputChain(power::Converter::smart_buck_boost("out"), Volts{3.0}));
  p->set_node(std::make_unique<node::SensorNode>(
      "node", node::McuParams{}, node::RadioParams{}, node::WorkloadParams{}));
  return p;
}

TEST(PrometheusText, CampaignScrapeCarriesLeakRows) {
  campaign::CampaignSpec spec;
  spec.platforms.push_back(
      {"mini", [](std::uint64_t) { return mini_platform(); }});
  campaign::Scenario sc;
  sc.name = "faulted";
  sc.environment = [](std::uint64_t seed) {
    return std::make_unique<env::Environment>(env::Environment::outdoor(seed));
  };
  sc.duration = Seconds{3600.0};
  sc.options.dt = Seconds{5.0};
  sc.options.timeline_dt = Seconds{300.0};
  sc.injector = [](std::uint64_t seed, systems::Platform& platform) {
    auto inj = std::make_unique<fault::FaultInjector>(seed);
    inj->harvester_intermittent(Seconds{600.0}, platform.input(0), 0.5);
    return inj;
  };
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {3, 5, 9};
  spec.threads = 2;
  campaign::Campaign c(std::move(spec));
  c.run();

  const auto text = obs::prometheus_text(c.metrics());
  EXPECT_EQ(obs::prometheus_lint(text), "") << text.substr(0, 2000);
  for (const char* needle :
       {"msehsim_campaign_leak_warnings_total",
        "msehsim_campaign_leak_excess_max_j", "msehsim_campaign_jobs_total"})
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
}

}  // namespace
}  // namespace msehsim
