// The three in-process campaign workloads: survey_grid, buffer_sweep and
// fault_failover. Each builds a campaign::CampaignSpec from the seed, then
// runs fresh Campaigns over it back to back until the time is up. One
// repetition is one "request": the unit a user waits for.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "bench_util.hpp"
#include "campaign/campaign.hpp"
#include "core/random.hpp"
#include "env/environment.hpp"
#include "fault/schedule.hpp"
#include "manager/backup_chain.hpp"
#include "manager/policies.hpp"
#include "obs/trace.hpp"
#include "serve/spec.hpp"
#include "systems/catalog.hpp"

namespace perfbench {

using namespace msehsim;

namespace {

/// The seed every reference digest is computed at. Held out: no tuning or
/// claim uses it as a measurement seed.
constexpr std::uint64_t kReferenceSeed = 20130318;

/// Set-up sampling time after each timed repetition.
constexpr double kSetupBurstSeconds = 0.03;

std::vector<std::uint64_t> derive_seeds(std::uint64_t seed, std::size_t n) {
  Pcg32 rng(seed);
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.next_u32());
  return out;
}

double platform_steps(const campaign::CampaignSpec& spec) {
  double per_seed_platform = 0.0;
  for (const auto& s : spec.scenarios)
    per_seed_platform += s.duration.value() / s.options.dt.value();
  return per_seed_platform * static_cast<double>(spec.platforms.size()) *
         static_cast<double>(spec.seeds.size());
}

/// Outcome of one campaign repetition.
struct RepResult {
  double wall_s{0.0};
  std::string digest;
  std::uint64_t jobs{0};
  std::uint64_t bad_ledgers{0};
};

/// Runs one fresh Campaign over @p spec. The digest folds to_string of every
/// job's RunResult in grid order; the ledger gate counts jobs whose energy
/// books do not balance to 1e-9.
RepResult run_rep(const campaign::CampaignSpec& spec,
                  std::unique_ptr<campaign::Campaign>* keep = nullptr) {
  RepResult out;
  const auto start = Clock::now();
  auto c = std::make_unique<campaign::Campaign>(spec);
  c->run();
  out.wall_s = seconds_since(start);
  Digest d;
  for (const auto& job : c->results()) {
    d.add(systems::to_string(job.result));
    if (!(job.result.ledger.relative_residual() < 1e-9)) ++out.bad_ledgers;
  }
  out.digest = d.hex();
  out.jobs = c->results().size();
  if (keep != nullptr) *keep = std::move(c);
  return out;
}

/// A campaign workload: how to build its spec for a seed, and the fixed
/// tail percentile its latency summary reports.
struct CampaignWorkload {
  std::string name;
  std::function<campaign::CampaignSpec(std::uint64_t seed, unsigned threads)>
      make_spec;
  double tail_q;
};

void account(const RepResult& r, const std::string& want_digest, Report& report,
             const std::string& what) {
  report.attempted += r.jobs;
  if (r.bad_ledgers > 0)
    report.fail(what + ": " + std::to_string(r.bad_ledgers) +
                    " jobs with ledger residual >= 1e-9",
                r.bad_ledgers);
  if (r.digest != want_digest)
    report.fail(what + ": result digest " + r.digest + " differs from " +
                    want_digest,
                r.jobs);
}

void run_campaign_workload(const Options& opt, Report& report,
                           const CampaignWorkload& wl) {
  const unsigned threads = bench_threads();
  // Reference configuration first: checks the physics against the digest
  // kept with the benchmark and warms the allocator and page cache.
  {
    const RepResult ref = run_rep(wl.make_spec(kReferenceSeed, threads));
    report.attempted += ref.jobs;
    if (ref.bad_ledgers > 0)
      report.fail("reference run: ledger residual >= 1e-9", ref.bad_ledgers);
    check_reference(opt, wl.name + (opt.smoke ? ".smoke" : ""), ref.digest,
                    report);
  }

  const campaign::CampaignSpec spec = wl.make_spec(opt.seed, threads);
  const double steps = platform_steps(spec);
  report.note("grid: " + std::to_string(spec.platforms.size()) +
              " platforms x " + std::to_string(spec.scenarios.size()) +
              " scenarios x " + std::to_string(spec.seeds.size()) +
              " seeds, " + std::to_string(static_cast<long long>(steps)) +
              " platform-steps per campaign, " + std::to_string(threads) +
              " threads");

  const RepResult first = run_rep(spec);
  account(first, first.digest, report, "first repetition");
  report.note("result digest " + first.digest);
  // Warm-up: untimed repetitions so the timed loop starts on a busy host.
  const auto warm_start = Clock::now();
  while (seconds_since(warm_start) < warmup_seconds(opt))
    account(run_rep(spec), first.digest, report, "warm-up repetition");
  if (!opt.trace) {
    // Set-up: generate the spec, construct the Campaign, and build each
    // platform variant once (the model instantiation every job repeats).
    // Sampled in short bursts between timed repetitions, so the samples see
    // the same host conditions as the loop; one window at one moment swung
    // ±40% from run to run with the host's state.
    const auto setup = [&] {
      campaign::Campaign c(wl.make_spec(opt.seed, threads));
      for (const auto& variant : c.spec().platforms)
        (void)variant.make(c.spec().seeds.front());
    };
    std::vector<double> setups;
    double setup_s = 0.0;
    std::vector<double> walls;
    const auto loop_start = Clock::now();
    while (walls.size() < 3 || seconds_since(loop_start) - setup_s < opt.seconds) {
      const RepResult r = run_rep(spec);
      account(r, first.digest, report, "repetition");
      walls.push_back(r.wall_s);
      const auto burst = Clock::now();
      do {
        setups.push_back(time_s(setup));
      } while (seconds_since(burst) < kSetupBurstSeconds);
      setup_s += seconds_since(burst);
    }
    const double loop_s = seconds_since(loop_start) - setup_s;
    report_setup(report, setups);
    const LatencySummary lat = summarize_ms(walls, wl.tail_q);
    report.set("sim_steps_per_s", steps / median(walls), "steps/s");
    report.set("req_p50_ms", lat.p50_ms, "ms");
    report.set("req_tail_ms", lat.tail_ms, "ms");
    report.set("req_per_s", static_cast<double>(walls.size()) / loop_s, "req/s");
    report.set("cold_req_p50_ms", lat.p50_ms, "ms");
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "requests=%zu tail=p%g (%zu samples beyond it); every "
                  "request is cold (compiles its traces)",
                  lat.samples, wl.tail_q * 100.0, lat.beyond_tail);
    report.note(buf);
    return;
  }

  // ---- Traced run ---------------------------------------------------------
  // Tracing overhead: alternate untraced and traced repetitions (span
  // collection on), so drift hits both sides alike.
  std::vector<double> plain;
  std::vector<double> traced;
  auto& collector = obs::TraceCollector::instance();
  const auto loop_start = Clock::now();
  while (plain.size() < 3 || seconds_since(loop_start) < opt.seconds * 0.5) {
    const RepResult a = run_rep(spec);
    account(a, first.digest, report, "untraced repetition");
    plain.push_back(a.wall_s);
    collector.enable();
    const RepResult b = run_rep(spec);
    collector.disable();
    account(b, first.digest, report, "traced repetition");
    traced.push_back(b.wall_s);
  }
  report.set("obs.trace_overhead", median(traced) / median(plain), "ratio");

  // Pool efficiency: the same grid on one worker is the sum of solo
  // work-unit times; the result bytes must not depend on the thread count.
  campaign::CampaignSpec solo_spec = wl.make_spec(opt.seed, 1);
  std::vector<double> solo;
  for (int i = 0; i < (opt.smoke ? 1 : 3); ++i) {
    const RepResult r = run_rep(solo_spec);
    account(r, first.digest, report, "1-thread repetition");
    solo.push_back(r.wall_s);
  }
  report.set("campaign.pool_efficiency",
             median(solo) / (static_cast<double>(threads) * median(plain)),
             "ratio");

  std::unique_ptr<campaign::Campaign> kept;
  account(run_rep(spec, &kept), first.digest, report, "counter repetition");
  report_campaign_counters(*kept, report);
}

// ---- Workload definitions -------------------------------------------------

/// The paper's own systems as a design-space study: every catalog platform
/// under every env preset, built through the daemon's named-spec path so
/// the grid is exactly what a POST /v1/campaign would run, but in-process.
/// Four seeds of one day rather than two of two days: the same work in
/// sixteen lane blocks (one per preset and seed) instead of eight, so the
/// four workers can balance blocks of unequal cost.
campaign::CampaignSpec survey_grid_spec(std::uint64_t seed, unsigned threads,
                                        bool smoke) {
  serve::CampaignRequest req;
  req.platforms = serve::known_platforms();
  for (const auto& kind : serve::known_scenario_kinds())
    req.scenarios.push_back({kind + "-1d", kind, smoke ? 3600.0 : 86400.0, 5.0});
  req.seeds = derive_seeds(seed, 4);
  return serve::to_campaign_spec(req, nullptr, threads);
}

/// E5/C2 as a sweep: single-source (PV) and multi-source (PV + wind)
/// study platforms crossed with eight supercap sizes, all sharing each
/// (outdoor, seed) trace. Every lane is SoA-eligible.
campaign::CampaignSpec buffer_sweep_spec(std::uint64_t seed, unsigned threads,
                                         bool smoke) {
  using benchutil::Source;
  const std::vector<std::pair<std::string, std::vector<Source>>> mixes = {
      {"pv", {Source::kPvOutdoor}},
      {"pv+wind", {Source::kPvOutdoor, Source::kWind}}};
  const double farads[] = {0.5, 1.0, 2.2, 4.7, 10.0, 22.0, 47.0, 100.0};
  campaign::CampaignSpec spec;
  for (const auto& [mix, sources] : mixes) {
    for (const double f : farads) {
      char label[48];
      std::snprintf(label, sizeof label, "%s-%gF", mix.c_str(), f);
      spec.platforms.push_back(
          {label, [sources = sources, f](std::uint64_t) {
             return benchutil::make_platform(sources, Farads{f});
           }});
    }
  }
  campaign::Scenario day;
  day.name = "outdoor-1d";
  day.environment = [](std::uint64_t s) {
    return std::make_unique<env::Environment>(env::Environment::outdoor(s));
  };
  day.duration = Seconds{smoke ? 3600.0 : 86400.0};
  day.options.dt = Seconds{5.0};
  spec.scenarios.push_back(std::move(day));
  spec.seeds = derive_seeds(seed, 4);
  spec.threads = threads;
  return spec;
}

/// System A's reactions to a fault: the catalog's SoC-hysteresis
/// FuelCellPolicy, a power-loss FailoverPolicy, and a fuel-cell + load-shed
/// BackupChain.
std::unique_ptr<systems::Platform> system_a_reaction(int reaction,
                                                     std::uint64_t seed) {
  auto a = systems::build_system_a(seed);
  if (reaction == 1) {
    manager::FailoverPolicy::Params fp;
    fp.dead_time = Seconds{600.0};
    a->set_failover_policy(manager::FailoverPolicy(fp), 2);
  } else if (reaction == 2) {
    manager::BackupStageParams fuel_cell;
    fuel_cell.kind = manager::BackupStageKind::kFuelCell;
    fuel_cell.storage_slot = 2;
    fuel_cell.min_outage = Seconds{600.0};
    fuel_cell.min_recovery = Seconds{1800.0};
    manager::BackupStageParams load_shed;
    load_shed.kind = manager::BackupStageKind::kLoadShed;
    load_shed.enable_below_soc = 0.10;
    load_shed.disable_above_soc = 0.35;
    load_shed.min_outage = Seconds{3600.0};
    load_shed.min_recovery = Seconds{3600.0};
    manager::BackupChain::Params chain;
    chain.stages = {fuel_cell, load_shed};
    a->set_backup_chain(chain);
  }
  return a;
}

constexpr const char* kFaultSchedule = "examples/schedules/system_a_faults.csv";

campaign::CampaignSpec fault_failover_spec(std::uint64_t seed, unsigned threads,
                                           bool smoke) {
  auto schedule =
      std::make_shared<const fault::Schedule>(fault::Schedule::load(kFaultSchedule));
  campaign::CampaignSpec spec;
  const char* names[] = {"soc-policy", "failover", "backup-chain"};
  for (int r = 0; r < 3; ++r)
    spec.platforms.push_back(
        {names[r], [r](std::uint64_t s) { return system_a_reaction(r, s); }});
  campaign::Scenario sc;
  sc.name = "outdoor-faults-2d";
  sc.environment = [](std::uint64_t s) {
    return std::make_unique<env::Environment>(env::Environment::outdoor(s));
  };
  sc.duration = Seconds{smoke ? 4.0 * 3600.0 : 2.0 * 86400.0};
  sc.options.dt = Seconds{5.0};
  sc.injector = campaign::schedule_injector(std::move(schedule));
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = derive_seeds(seed, 4);
  spec.threads = threads;
  return spec;
}

}  // namespace

void report_campaign_counters(const campaign::Campaign& c, Report& report) {
  std::vector<double> merge_t;
  obs::MetricsSnapshot snap;
  for (int i = 0; i < 20; ++i) merge_t.push_back(time_s([&] { snap = c.metrics(); }));
  report.set("obs.metrics_merge_us", median(merge_t) * 1e6, "us");
  report.set("campaign.lane_blocks", static_cast<double>(c.lane_blocks()), "count");
  report.set("campaign.trace_compiles", static_cast<double>(c.trace_compiles()), "count");
  const auto gauge = [&](const char* name) {
    const obs::MetricRow* row = snap.find(name);
    return row == nullptr ? 0.0 : row->value;
  };
  report.set("systems.soa_resident_fraction", gauge("campaign.soa.resident_fraction"),
             "ratio");
  report.set("systems.soa_quiet_fraction", gauge("campaign.soa.quiet_fraction"), "ratio");
  std::uint64_t hits = 0;
  std::uint64_t recomputes = 0;
  for (const auto& job : c.results()) {
    hits += job.result.mpp_cache_hits;
    recomputes += job.result.mpp_recomputes;
  }
  report.set("harvest.mpp_memo_hit_ratio",
             hits + recomputes == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(hits + recomputes),
             "ratio");
}

void run_survey_grid(const Options& opt, Report& report) {
  run_campaign_workload(
      opt, report,
      {"survey_grid",
       [&](std::uint64_t s, unsigned t) { return survey_grid_spec(s, t, opt.smoke); },
       0.7});
}

void run_buffer_sweep(const Options& opt, Report& report) {
  run_campaign_workload(
      opt, report,
      {"buffer_sweep",
       [&](std::uint64_t s, unsigned t) { return buffer_sweep_spec(s, t, opt.smoke); },
       0.9});
}

void run_fault_failover(const Options& opt, Report& report) {
  run_campaign_workload(
      opt, report,
      {"fault_failover",
       [&](std::uint64_t s, unsigned t) {
         return fault_failover_spec(s, t, opt.smoke);
       },
       0.85});
  if (!opt.trace) return;
  // Fault layer: compiling the schedule against a fresh System A, per job.
  const auto schedule = fault::Schedule::load(kFaultSchedule);
  std::vector<double> t;
  std::size_t events = 0;
  for (std::uint64_t s : derive_seeds(opt.seed, 16)) {
    auto a = systems::build_system_a(s);
    const auto targets = a->fault_targets();
    std::unique_ptr<fault::FaultInjector> inj;
    t.push_back(time_s([&] { inj = schedule.build_injector(s, targets); }));
    events = inj->scheduled();
  }
  report.set("fault.build_injector_us", median(t) * 1e6, "us");
  report.set("fault.events", static_cast<double>(events), "count");
}

}  // namespace perfbench
