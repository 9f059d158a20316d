#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>

#include "core/error.hpp"
#include "obs/trace.hpp"
#include "systems/batch_runner.hpp"

namespace msehsim::campaign {

namespace {

/// Lanes per LaneBlock: jobs sharing a (scenario, seed) compiled trace are
/// advanced in lockstep blocks of up to this many lanes, so the ambient slot
/// is decoded once per step for the block and twin PV panels share their
/// curve solves. Any grouping gives the same result bytes.
constexpr std::size_t kLaneWidth = 8;

}  // namespace

FieldStats field_stats(const std::vector<JobResult>& jobs,
                       double (*get)(const systems::RunResult&)) {
  FieldStats s;
  if (jobs.empty()) return s;
  double sum = 0.0;
  s.min = get(jobs.front().result);
  s.max = s.min;
  for (const auto& job : jobs) {
    const double v = get(job.result);
    sum += v;
    if (v < s.min) s.min = v;
    if (v > s.max) s.max = v;
  }
  const auto n = static_cast<double>(jobs.size());
  s.mean = sum / n;
  double ss = 0.0;
  for (const auto& job : jobs) {
    const double d = get(job.result) - s.mean;
    ss += d * d;
  }
  s.stddev = std::sqrt(ss / n);
  return s;
}

Campaign::Campaign(CampaignSpec spec) : spec_(std::move(spec)) {
  // An empty axis is a legal zero-job grid, not an error: the daemon
  // forwards user specs verbatim, and an empty request must produce valid
  // headers-only exports and a lint-clean metrics scrape, the same way an
  // empty SQL result set is still a table.
  for (const auto& p : spec_.platforms)
    require_spec(static_cast<bool>(p.make),
                 "Campaign platform variant '" + p.name + "' has no factory");
  for (const auto& s : spec_.scenarios) {
    require_spec(static_cast<bool>(s.environment),
                 "Campaign scenario '" + s.name + "' has no environment factory");
    require_spec(s.duration.value() > 0.0,
                 "Campaign scenario '" + s.name + "' needs positive duration");
    require_spec(s.options.dt.value() > 0.0,
                 "Campaign scenario '" + s.name + "' needs positive dt");
  }
}

std::size_t Campaign::flat_index(std::size_t platform, std::size_t scenario,
                                 std::size_t seed_index) const {
  return (platform * spec_.scenarios.size() + scenario) * spec_.seeds.size() +
         seed_index;
}

std::shared_ptr<const env::CompiledTrace> Campaign::compiled_trace(
    std::size_t scenario_index, std::size_t seed_index) {
  auto& slot = trace_slots_[scenario_index * spec_.seeds.size() + seed_index];
  std::call_once(slot.once, [&] {
    obs::Span span{"campaign.compile_trace", "campaign"};
    try {
      const auto& scenario = spec_.scenarios[scenario_index];
      env::TraceCache* cache = spec_.shared_trace_cache.get();
      const env::TraceCacheKey key{
          scenario.trace_key.empty() ? scenario.name : scenario.trace_key,
          spec_.seeds[seed_index], scenario.options.dt, scenario.duration};
      if (cache != nullptr) {
        // A mapped hit skips environment construction entirely — that is
        // the win. Any invalid or missing entry falls through to a live
        // compile below, so a corrupt cache can never change a result.
        slot.trace = cache->load(key);
        if (slot.trace) return;
      }
      auto source = scenario.environment(spec_.seeds[seed_index]);
      require_spec(source != nullptr,
                   "Campaign environment factory '" + scenario.name +
                       "' returned null");
      slot.trace = env::CompiledTrace::compile(*source, scenario.options.dt,
                                               scenario.duration);
      trace_compiles_.fetch_add(1, std::memory_order_relaxed);
      if (cache != nullptr) cache->store(key, *slot.trace);
    } catch (const std::exception& e) {
      slot.error = e.what();
    } catch (...) {
      slot.error = "unknown error compiling trace";
    }
  });
  if (!slot.error.empty()) throw SpecError(slot.error);
  return slot.trace;
}

void Campaign::run_block(const LaneBlock& block,
                         std::vector<std::string>& errors) {
  const auto& scenario = spec_.scenarios[block.scenario_index];
  obs::Span block_span{
      "campaign.block", "campaign",
      "\"scenario\": \"" + scenario.name + "\", \"seed\": " +
          std::to_string(spec_.seeds[block.seed_index]) +
          ", \"lanes\": " + std::to_string(block.grid_indices.size())};

  std::shared_ptr<const env::CompiledTrace> trace;
  try {
    trace = compiled_trace(block.scenario_index, block.seed_index);
  } catch (const std::exception& e) {
    for (std::size_t i : block.grid_indices) errors[i] = e.what();
    return;
  }

  // Per-lane construction failures are attributed to the exact grid point
  // whose factory rejected its configuration, then the block is abandoned:
  // any error empties the campaign's results anyway, so only the message's
  // coordinates matter.
  std::vector<std::unique_ptr<systems::Platform>> platforms;
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
  platforms.reserve(block.grid_indices.size());
  injectors.reserve(block.grid_indices.size());
  systems::BatchRunner runner(trace, scenario.duration, scenario.options);
  for (std::size_t i : block.grid_indices) {
    const auto& job = results_[i];
    const auto& variant = spec_.platforms[job.platform_index];
    try {
      auto platform = variant.make(job.seed);
      require_spec(platform != nullptr, "Campaign platform factory '" +
                                            variant.name + "' returned null");
      std::unique_ptr<fault::FaultInjector> injector;
      if (scenario.injector) injector = scenario.injector(job.seed, *platform);
      runner.add_lane(*platform, injector.get());
      platforms.push_back(std::move(platform));
      injectors.push_back(std::move(injector));
    } catch (const std::exception& e) {
      errors[i] = e.what();
      return;
    } catch (...) {
      errors[i] = "unknown error";
      return;
    }
  }

  try {
    std::vector<systems::RunResult> lane_results = runner.run();
    for (std::size_t lane = 0; lane < block.grid_indices.size(); ++lane)
      results_[block.grid_indices[lane]].result = std::move(lane_results[lane]);
    lane_blocks_.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    // The lanes ran in lockstep; a mid-run failure has no single lane to
    // blame, so every job in the block carries the message and run()'s
    // first-in-grid-order rule picks the reported one.
    for (std::size_t i : block.grid_indices) errors[i] = e.what();
  } catch (...) {
    for (std::size_t i : block.grid_indices) errors[i] = "unknown error";
  }
}

void Campaign::detect_leaks() {
  leak_warnings_.clear();
  for (const auto& job : results_) {
    const double first = job.result.ledger.storage_loss_first_half_j;
    const double second = job.result.ledger.storage_loss_j - first;
    // Linear (rate-constant) losses split evenly across the halves;
    // superlinear growth shows up as a second half that dwarfs the first.
    // The absolute floor keeps numeric dust on lossless configs quiet.
    if (second > 2.0 * first && second - first > 1e-6) {
      leak_warnings_.push_back({job.platform_index, job.scenario_index,
                                job.seed_index, job.seed, first, second});
    }
  }
}

const std::vector<LeakWarning>& Campaign::leak_warnings() const {
  require_spec(ran_, "Campaign::leak_warnings before run()");
  return leak_warnings_;
}

const std::vector<JobResult>& Campaign::run() {
  if (ran_) return results_;

  const std::size_t total = job_count();
  results_.resize(total);
  for (std::size_t p = 0; p < spec_.platforms.size(); ++p)
    for (std::size_t s = 0; s < spec_.scenarios.size(); ++s)
      for (std::size_t k = 0; k < spec_.seeds.size(); ++k) {
        auto& job = results_[flat_index(p, s, k)];
        job.platform_index = p;
        job.scenario_index = s;
        job.seed_index = k;
        job.seed = spec_.seeds[k];
      }

  if (!trace_slots_) {
    trace_slots_ = std::make_unique<TraceSlot[]>(spec_.scenarios.size() *
                                                 spec_.seeds.size());
  }

  // The schedulable unit: the platform-variant axis of each (scenario,
  // seed) pair — every job that replays the same compiled trace — is
  // chunked into LaneBlocks of up to kLaneWidth lanes, each advanced in
  // lockstep by one BatchRunner. The kernel's byte-identity contract makes
  // the block shape a pure scheduling decision: results land in the same
  // grid slots with the same bytes however the lanes are grouped.
  std::vector<LaneBlock> units;
  for (std::size_t s = 0; s < spec_.scenarios.size(); ++s)
    for (std::size_t k = 0; k < spec_.seeds.size(); ++k)
      for (std::size_t p0 = 0; p0 < spec_.platforms.size(); p0 += kLaneWidth) {
        LaneBlock block;
        block.scenario_index = s;
        block.seed_index = k;
        const std::size_t end =
            std::min(p0 + kLaneWidth, spec_.platforms.size());
        for (std::size_t p = p0; p < end; ++p)
          block.grid_indices.push_back(flat_index(p, s, k));
        units.push_back(std::move(block));
      }

  // Workers pop units through a fixed permutation sorted by expected step
  // count (duration / dt, the dominant cost driver), longest first, so the
  // pool never strands its tail behind one late-popped long unit. Among
  // equals, a block's rank inside its (scenario, seed) group comes first:
  // the first blocks popped then replay distinct traces, instead of two
  // siblings where one waits in compiled_trace's call_once while the other
  // compiles. The stable sort keeps construction order among full ties.
  // Results still land in grid-order slots.
  std::vector<std::size_t> order(units.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto expected_steps = [&](std::size_t u) {
    const auto& s = spec_.scenarios[units[u].scenario_index];
    return s.duration.value() / s.options.dt.value();
  };
  const auto trace_rank = [&](std::size_t u) {
    return results_[units[u].grid_indices.front()].platform_index / kLaneWidth;
  };
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double steps_a = expected_steps(a);
    const double steps_b = expected_steps(b);
    if (steps_a != steps_b) return steps_a > steps_b;
    return trace_rank(a) < trace_rank(b);
  });

  // Each error slot is written by exactly one worker (the one that popped
  // the unit containing that job), so no synchronization beyond the join is
  // needed.
  std::vector<std::string> errors(total);
  std::atomic<std::size_t> next{0};
  auto& collector = obs::TraceCollector::instance();
  const auto pool_start = obs::TraceCollector::Clock::now();
  const auto worker = [this, &units, &next, &errors, &order, &collector,
                       pool_start](unsigned worker_index) {
    if (collector.enabled())
      collector.set_thread_name("worker-" + std::to_string(worker_index));
    for (;;) {
      const std::size_t n = next.fetch_add(1, std::memory_order_relaxed);
      if (n >= units.size()) return;
      const LaneBlock& unit = units[order[n]];
      if (collector.enabled()) {
        // Queue wait: how long this unit sat ready before a worker popped
        // it — the LPT schedule made visible per unit.
        collector.record(
            "campaign.job_wait", "campaign", pool_start,
            obs::TraceCollector::Clock::now(),
            "\"grid_index\": " + std::to_string(unit.grid_indices.front()) +
                ", \"lanes\": " + std::to_string(unit.grid_indices.size()));
      }
      run_block(unit, errors);
    }
  };

  unsigned threads = spec_.threads != 0 ? spec_.threads
                                        : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  if (threads > units.size()) threads = static_cast<unsigned>(units.size());

  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (auto& t : pool) t.join();
  }

  // Surface the first failure in grid order, independent of which worker
  // hit it first on the wall clock.
  for (std::size_t i = 0; i < total; ++i) {
    if (!errors[i].empty()) {
      const auto& job = results_[i];
      results_.clear();
      throw SpecError("Campaign job (platform='" +
                      spec_.platforms[job.platform_index].name + "', scenario='" +
                      spec_.scenarios[job.scenario_index].name +
                      "', seed=" + std::to_string(job.seed) +
                      ") failed: " + errors[i]);
    }
  }

  detect_leaks();
  ran_ = true;
  return results_;
}

const std::vector<JobResult>& Campaign::results() const {
  require_spec(ran_, "Campaign::results before run()");
  return results_;
}

const JobResult& Campaign::at(std::size_t platform, std::size_t scenario,
                              std::size_t seed_index) const {
  require_spec(ran_, "Campaign::at before run()");
  require_spec(platform < spec_.platforms.size() &&
                   scenario < spec_.scenarios.size() &&
                   seed_index < spec_.seeds.size(),
               "Campaign::at index out of range");
  return results_[flat_index(platform, scenario, seed_index)];
}

obs::MetricsSnapshot Campaign::metrics() const {
  require_spec(ran_, "Campaign::metrics before run()");
  obs::MetricsSnapshot merged;
  for (const auto& job : results_)
    merged.merge(systems::metrics_snapshot(job.result));
  obs::Registry campaign_level;
  campaign_level.counter("campaign.jobs").add(results_.size());
  campaign_level.counter("campaign.trace_compiles").add(trace_compiles());
  campaign_level.counter("campaign.lane_blocks").add(lane_blocks());
  // Leak detector (obs pillar 2): the warning count plus the worst excess
  // of second-half over first-half storage loss, so a dashboard threshold
  // on either row catches a storage stack whose losses grow with runtime.
  campaign_level.counter("campaign.leak_warnings").add(leak_warnings_.size());
  double worst_excess = 0.0;
  for (const auto& w : leak_warnings_)
    worst_excess =
        std::max(worst_excess, w.second_half_loss_j - w.first_half_loss_j);
  campaign_level.gauge("campaign.leak_excess_max_j").set(worst_excess);
  if (spec_.shared_trace_cache) {
    // Cache behavior is allowed to differ run to run (cold vs warm) — these
    // rows exist for exactly that diagnosis, unlike the result exports,
    // which stay byte-identical across cache states.
    const env::TraceCacheStats cs = spec_.shared_trace_cache->stats();
    campaign_level.counter("trace_cache.hits").add(cs.hits);
    campaign_level.counter("trace_cache.misses").add(cs.misses);
    campaign_level.counter("trace_cache.evictions").add(cs.evictions);
    campaign_level.gauge("trace_cache.bytes_mapped")
        .set(static_cast<double>(cs.bytes_mapped));
  }
  merged.merge(campaign_level.snapshot());
  return merged;
}

env::TraceCacheStats Campaign::trace_cache_stats() const {
  return spec_.shared_trace_cache ? spec_.shared_trace_cache->stats()
                                  : env::TraceCacheStats{};
}

InjectorFactory schedule_injector(
    std::shared_ptr<const fault::Schedule> schedule) {
  require_spec(schedule != nullptr, "schedule_injector: null schedule");
  return [schedule = std::move(schedule)](std::uint64_t seed,
                                          systems::Platform& platform) {
    return schedule->build_injector(seed, platform.fault_targets());
  };
}

std::vector<FieldStats> Campaign::seed_stats(std::size_t platform,
                                             std::size_t scenario) const {
  require_spec(ran_, "Campaign::seed_stats before run()");
  require_spec(
      platform < spec_.platforms.size() && scenario < spec_.scenarios.size(),
      "Campaign::seed_stats index out of range");
  std::vector<JobResult> cell;
  cell.reserve(spec_.seeds.size());
  for (std::size_t k = 0; k < spec_.seeds.size(); ++k)
    cell.push_back(results_[flat_index(platform, scenario, k)]);
  std::vector<FieldStats> out;
  out.reserve(systems::run_result_fields().size());
  for (const auto& field : systems::run_result_fields())
    out.push_back(field_stats(cell, field.get));
  return out;
}

}  // namespace msehsim::campaign
