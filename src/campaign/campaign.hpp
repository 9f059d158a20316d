// Parallel campaign engine for year-scale, multi-seed studies.
//
// A Campaign fans the full (platform-variant x scenario x seed) grid of
// independent jobs across a std::thread pool. Every job builds its OWN
// platform and (optional) fault injector through the factories in the spec
// — no mutable state is shared between workers, which is the entire
// thread-safety model: Platform, Harvester (and its MPP cache), and the
// seeded RNG streams are all plain single-threaded state, so isolation by
// construction beats locking on every hot-path access. The one shared object
// is immutable: the (scenario, seed) ambient timeline is compiled once into
// an env::CompiledTrace, and the jobs of every platform variant replay it in
// lane blocks of a systems::BatchRunner. Results land in a preallocated slot
// per grid point, so their order is the deterministic grid order
// (platform-major, then scenario, then seed) regardless of how the pool
// schedules the blocks (longest expected run first, so a long scenario
// cannot strand the pool tail on one worker) — to_string(RunResult) of every
// job is byte-identical to run_platform over the scenario's live
// environment, whether the campaign ran on 1 thread or N.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/units.hpp"
#include "env/compiled_trace.hpp"
#include "env/trace_cache.hpp"
#include "obs/metrics.hpp"
#include "env/environment.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "systems/platform.hpp"
#include "systems/runner.hpp"

namespace msehsim::campaign {

/// Builds a fresh platform for one job. Called once per job, possibly from a
/// worker thread; must not touch shared mutable state.
using PlatformFactory =
    std::function<std::unique_ptr<systems::Platform>(std::uint64_t seed)>;

/// Builds a fresh environment for one job.
using EnvironmentFactory =
    std::function<std::unique_ptr<env::EnvironmentModel>(std::uint64_t seed)>;

/// Builds (and schedules) a fresh fault injector against the job's own
/// platform. Optional; a default-constructed function means no faults.
using InjectorFactory = std::function<std::unique_ptr<fault::FaultInjector>(
    std::uint64_t seed, systems::Platform& platform)>;

/// InjectorFactory driven by a declarative fault::Schedule: each job
/// compiles the shared (immutable) schedule against its own platform's
/// injectable surface with its own seed, so a campaign and a standalone
/// experiment binary replay the same schedule file bit-identically. The
/// schedule must outlive the campaign (the shared_ptr keeps it).
[[nodiscard]] InjectorFactory schedule_injector(
    std::shared_ptr<const fault::Schedule> schedule);

/// One axis point of the platform grid: a named way to build a system.
struct PlatformVariant {
  std::string name;
  PlatformFactory make;
};

/// One axis point of the scenario grid: environment + run configuration.
struct Scenario {
  std::string name;
  EnvironmentFactory environment;
  Seconds duration{86400.0};
  /// Per-run options, shared by every job of the scenario (plain values;
  /// injectors are created per job via the factory below).
  systems::RunOptions options{};
  InjectorFactory injector{};
  /// Stable generator identity for the persistent trace cache; empty (the
  /// default) falls back to `name`. The daemon sets this to the preset kind
  /// so two requests labelling the same generator differently still share
  /// one cached timeline — and two requests reusing a label for *different*
  /// generators can never collide on it.
  std::string trace_key;
};

struct CampaignSpec {
  std::vector<PlatformVariant> platforms;
  std::vector<Scenario> scenarios;
  std::vector<std::uint64_t> seeds;
  /// Worker threads; 0 picks std::thread::hardware_concurrency(). The
  /// thread count never changes any result byte, only the wall clock.
  unsigned threads{0};
  /// Persistent trace cache (env::TraceCache); null (the default) keeps
  /// every compiled timeline in memory only. When set, each (scenario,
  /// seed) snapshot is probed in the cache first — a valid entry is
  /// memory-mapped read-only instead of synthesized — and fresh compiles are
  /// written back. Results are byte-identical either way; the cache can only
  /// trade disk for compile time. Entries are keyed by trace_key (else
  /// scenario name) plus seed/dt/duration/library version, so a scenario
  /// whose generator recipe changes must change its key or its directory.
  /// One cache may be shared across campaigns (the daemon's: one warm cache
  /// for every request); its hit/miss/eviction counters accumulate over the
  /// cache's lifetime, not one campaign's. A per-campaign cache is
  /// std::make_shared<env::TraceCache>(dir, max_bytes).
  std::shared_ptr<env::TraceCache> shared_trace_cache;
};

/// One grid point's outcome, tagged with its coordinates.
struct JobResult {
  std::size_t platform_index{0};
  std::size_t scenario_index{0};
  std::size_t seed_index{0};
  std::uint64_t seed{0};
  systems::RunResult result{};
};

/// One grid point flagged by the energy-ledger leak detector: its
/// storage_loss grew superlinearly in duration (second-half loss more than
/// twice the first-half loss), the signature of a storage stack that bleeds
/// faster the longer it runs — a mis-set leakage multiplier, an unbounded
/// fade schedule — rather than a constant-rate cost.
struct LeakWarning {
  std::size_t platform_index{0};
  std::size_t scenario_index{0};
  std::size_t seed_index{0};
  std::uint64_t seed{0};
  double first_half_loss_j{0.0};
  double second_half_loss_j{0.0};
};

/// mean / stddev (population) / min / max of one field over a set of jobs.
struct FieldStats {
  double mean{0.0};
  double stddev{0.0};
  double min{0.0};
  double max{0.0};
};

/// Aggregates @p get over @p jobs. Plain sequential code over the
/// deterministic grid order, so aggregates are as reproducible as the runs.
[[nodiscard]] FieldStats field_stats(const std::vector<JobResult>& jobs,
                                     double (*get)(const systems::RunResult&));

class Campaign {
 public:
  explicit Campaign(CampaignSpec spec);

  /// Runs every job in the grid (platform-major, then scenario, then seed)
  /// and returns the results in exactly that order. Runs once; subsequent
  /// calls return the stored results. Throws SpecError if a job's factory or
  /// run rejects its configuration (the first failing job in grid order
  /// wins), after all workers have drained.
  const std::vector<JobResult>& run();

  [[nodiscard]] bool ran() const { return ran_; }
  [[nodiscard]] const CampaignSpec& spec() const { return spec_; }
  [[nodiscard]] std::size_t job_count() const {
    return spec_.platforms.size() * spec_.scenarios.size() * spec_.seeds.size();
  }

  /// Results in grid order (valid after run()).
  [[nodiscard]] const std::vector<JobResult>& results() const;

  /// The job at one grid coordinate (valid after run()).
  [[nodiscard]] const JobResult& at(std::size_t platform, std::size_t scenario,
                                    std::size_t seed_index) const;

  /// Per-(platform, scenario) cell statistics across seeds: one FieldStats
  /// per systems::run_result_fields() entry.
  [[nodiscard]] std::vector<FieldStats> seed_stats(std::size_t platform,
                                                   std::size_t scenario) const;

  /// Ambient timelines actually compiled. Every platform variant shares the
  /// same (scenario, seed) snapshot, so after a full run this equals
  /// scenarios x seeds however many variants ran — minus the slots served
  /// from the persistent cache, which count under trace_cache_stats().hits
  /// instead.
  [[nodiscard]] std::uint64_t trace_compiles() const {
    return trace_compiles_.load(std::memory_order_relaxed);
  }

  /// Persistent-cache counters (all zero without shared_trace_cache).
  [[nodiscard]] env::TraceCacheStats trace_cache_stats() const;

  /// Lane blocks executed. After a full run this is the grid's
  /// (scenario x seed) pairs times ceil(platforms / 8): each block holds up
  /// to 8 of the platform variants that share one compiled trace.
  [[nodiscard]] std::uint64_t lane_blocks() const {
    return lane_blocks_.load(std::memory_order_relaxed);
  }

  /// Grid points flagged by the superlinear storage-loss detector, in grid
  /// order (valid after run(); empty when no run leaked). The probe is the
  /// ledger's mid-run snapshot (storage_loss_first_half_j), so detection is
  /// free — no extra instrumentation ran in the jobs.
  [[nodiscard]] const std::vector<LeakWarning>& leak_warnings() const;

  /// Every job's metrics_snapshot merged in grid order (counters and
  /// histograms sum, gauges keep their max), plus campaign-level counters
  /// (campaign.jobs, campaign.trace_compiles). Valid after run();
  /// deterministic across thread counts because the merge walks the stored
  /// grid order, never the scheduling order.
  [[nodiscard]] obs::MetricsSnapshot metrics() const;

 private:
  struct TraceSlot {
    std::once_flag once;
    std::shared_ptr<const env::CompiledTrace> trace;
    std::string error;
  };

  [[nodiscard]] std::size_t flat_index(std::size_t platform,
                                       std::size_t scenario,
                                       std::size_t seed_index) const;
  /// Lazily compiles (or waits for) the (scenario, seed) snapshot; rethrows
  /// a captured compile failure for every job that needed the slot.
  [[nodiscard]] std::shared_ptr<const env::CompiledTrace> compiled_trace(
      std::size_t scenario_index, std::size_t seed_index);

  /// The schedulable work unit: up to 8 jobs that share a
  /// (scenario, seed) compiled trace, identified by their flat result
  /// indices.
  struct LaneBlock {
    std::size_t scenario_index{0};
    std::size_t seed_index{0};
    std::vector<std::size_t> grid_indices;
  };
  /// Builds every lane of @p block and runs them through one BatchRunner.
  /// Failures are written into @p errors at the failing grid index (lane
  /// setup) or every index of the block (the shared run), matching the
  /// first-in-grid-order reporting of run().
  void run_block(const LaneBlock& block, std::vector<std::string>& errors);
  void detect_leaks();

  CampaignSpec spec_;
  std::vector<JobResult> results_;
  std::vector<LeakWarning> leak_warnings_;
  // once_flag is neither movable nor copyable, hence the raw array.
  std::unique_ptr<TraceSlot[]> trace_slots_;
  std::atomic<std::uint64_t> trace_compiles_{0};
  std::atomic<std::uint64_t> lane_blocks_{0};
  bool ran_{false};
};

}  // namespace msehsim::campaign
