// Convenience harness: drive one Platform in one Environment.
//
// run_platform is a one-lane systems::BatchRunner (batch_runner.hpp), the
// project's only step engine; this header holds the run's options (plain
// values, shareable by every lane of a block; a fault injector is a call
// argument) and the summary numbers every bench and example reports.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "env/environment.hpp"
#include "fault/injector.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "systems/platform.hpp"

namespace msehsim::systems {

/// Fault-layer bookkeeping aggregated over a run: what was injected (from
/// the armed FaultInjector) and what the components actually experienced.
struct FaultReport {
  fault::InjectionCounters injected;        ///< scheduled faults that fired
  std::uint64_t harvester_faulted_steps{0}; ///< steps a wrapped harvester spent faulted
  std::uint64_t harvester_transitions{0};   ///< fault-mode changes across wrappers
  std::uint64_t converter_shutdowns{0};     ///< thermal-shutdown entries
  std::uint64_t converter_shutdown_steps{0};///< steps spent in shutdown
  std::uint64_t bus_fault_hits{0};          ///< transactions killed by injection
  std::uint64_t bus_naks{0};                ///< all NAKs (incl. empty sockets)
  std::uint64_t retry_attempts{0};          ///< monitor poll attempts
  std::uint64_t retry_retries{0};           ///< attempts beyond the first
  std::uint64_t retry_give_ups{0};          ///< polls abandoned after the ladder
  std::uint64_t failovers{0};               ///< backup switch-ins
  std::uint64_t failbacks{0};               ///< backup switch-outs
  /// Outage-triggered failovers with a measurable onset, and their total
  /// fault-onset -> switch-in latency (manager::FailoverPolicy or
  /// manager::BackupChain, whichever the platform drives).
  std::uint64_t failover_latency_count{0};
  double failover_latency_total_s{0.0};

  /// Mean fault-onset -> switch-in latency (the ROADMAP mean-time-to-
  /// failover metric); 0 when no outage-triggered failover occurred.
  [[nodiscard]] double mean_time_to_failover_s() const {
    return failover_latency_count == 0
               ? 0.0
               : failover_latency_total_s /
                     static_cast<double>(failover_latency_count);
  }
};

/// Survivability view of one run — the metrics the population-scale related
/// work (the ns-3 energy framework, the EnHANTs studies) evaluates per node:
/// how long demand stayed fully served, how much of it went unserved, how
/// much of the run was energy-neutral, and where the backup ladder spent its
/// time. Filled from accumulators the run integrates anyway, so the bytes
/// are identical with observability on or off.
struct SurvivabilityReport {
  /// Backup stages reported as fixed scalar slots (fuel cell -> reserve ->
  /// load shed covers every catalog system); chains longer than this still
  /// count in backup_stages but only the first slots get per-stage rows.
  static constexpr std::size_t kReportedBackupStages = 3;

  /// Simulation time of the first unserved deficit, however small (the bus
  /// identity's epsilon, stricter than the brownout threshold); -1 when all
  /// demand was met.
  double time_to_first_unserved_s{-1.0};
  /// Unserved energy over total bus demand (quiescent + bus load); 0 when
  /// the run drew nothing.
  double unserved_energy_fraction{0.0};
  /// Fraction of the run spent energy-neutral: steps where harvest covered
  /// quiescent + bus load without discharging the stores.
  double energy_neutral_fraction{0.0};
  /// Stages configured on the platform's backup chain (0 without one).
  std::uint64_t backup_stages{0};
  /// Per-stage time spent engaged / switch-in count, in chain priority
  /// order; zeros beyond backup_stages.
  std::array<double, kReportedBackupStages> stage_residency_s{};
  std::array<std::uint64_t, kReportedBackupStages> stage_switch_ins{};
};

struct RunResult {
  Seconds duration{0.0};
  Joules harvested{0.0};       ///< delivered into the bus by all chains
  Joules load{0.0};            ///< consumed by the sensor node at the rail
  Joules quiescent{0.0};       ///< platform overhead
  Joules wasted{0.0};          ///< surplus nothing could absorb
  Joules unmet{0.0};           ///< demanded but unserviceable
  std::uint64_t packets{0};
  std::uint64_t queries_received{0};
  std::uint64_t queries_answered{0};
  std::uint64_t reboots{0};
  std::uint64_t brownouts{0};
  double availability{0.0};    ///< node uptime fraction
  /// Fraction of the run during which the chains delivered positive power
  /// into the bus — the "generation hours" metric of claim C1, computed
  /// per-step, so it needs no sampled time series.
  double generation_fraction{0.0};
  double final_ambient_soc{0.0};
  Joules final_stored{0.0};
  /// Simulation time of the first brownout; -1 when none occurred.
  double time_to_first_brownout_s{-1.0};
  /// MPP memoization counters summed over the platform's input chains
  /// (per-chain values are in ledger.sources).
  std::uint64_t mpp_cache_hits{0};
  std::uint64_t mpp_recomputes{0};
  FaultReport faults;
  SurvivabilityReport survivability;
  /// Per-run energy-conservation accounting (obs pillar 2). Filled from
  /// accumulators the run integrates anyway, so its bytes are identical
  /// with observability compiled in or out.
  obs::EnergyLedger ledger;
  /// Run-health timeline, present iff RunOptions::timeline_dt > 0.
  /// Deliberately NOT in run_result_fields(): the timeline has its own
  /// column table and exporters, so to_string/CSV/JSON of the result stay
  /// byte-identical whether sampling was on or off.
  std::shared_ptr<const obs::Timeline> timeline;
};

/// Name + accessor (+ integer formatting flag) for every scalar RunResult
/// field, in canonical report order. THE single authoritative field list:
/// to_string(RunResult), the campaign CSV/JSON exporters, and
/// metrics_snapshot() all iterate it, so a field added here propagates to
/// every surface at once and the byte-identity contract cannot silently
/// drift from the struct.
struct RunResultField {
  const char* name;
  double (*get)(const RunResult&);
  bool integral{false};  ///< rendered as unsigned decimal in to_string
};

[[nodiscard]] const std::vector<RunResultField>& run_result_fields();

/// Full-precision textual form of a RunResult (every float in the
/// locale-independent shortest round-trip form of core/fmt), so
/// two runs of the same seeded schedule can be compared byte-for-byte —
/// the determinism contract of the fault layer. Generated from
/// run_result_fields(), followed by the variable-length per-source ledger
/// rows.
[[nodiscard]] std::string to_string(const RunResult& result);

/// The run folded onto the metrics registry (obs pillar 1) under the
/// canonical field names: integral fields become counters, the rest
/// gauges, per-source ledger rows keyed by source index. Deterministic,
/// and mergeable across a campaign's jobs.
[[nodiscard]] obs::MetricsSnapshot metrics_snapshot(const RunResult& result);

/// Seeds every run's query-arrival stream (RunOptions::mean_query_interval).
inline constexpr std::uint64_t kQuerySeed = 0x5eed;

struct RunOptions {
  Seconds dt{1.0};
  Seconds management_period{60.0};
  /// When positive, asynchronous over-the-air queries arrive as a Poisson
  /// process with this mean interval and are delivered to the node (the
  /// wake-up-radio use case). Zero disables query traffic.
  Seconds mean_query_interval{0.0};
  /// When positive, a fixed-cadence run-health timeline (SoC, stored energy,
  /// bus voltage, unserved energy, backup-chain stage, per-source
  /// harvested/delivered power) is sampled every timeline_dt of simulated
  /// time and attached as RunResult::timeline — the run's only time-series
  /// recorder. Sampling is read-only — results are byte-identical
  /// with it on or off — but every sample is an event dispatch on its lane,
  /// so prefer coarse cadences on long campaigns.
  Seconds timeline_dt{0.0};
};

/// Runs @p platform in @p environment for @p duration and summarizes.
/// options.dt and @p duration must be finite and > 0 (SpecError). When
/// @p injector is set, its schedule is armed on the run's event queue and
/// its counters land in RunResult::faults; it must already be built against
/// @p platform, and a given injector can be armed only once.
RunResult run_platform(Platform& platform, env::EnvironmentModel& environment,
                       Seconds duration,
                       const RunOptions& options = RunOptions{},
                       fault::FaultInjector* injector = nullptr);

}  // namespace msehsim::systems
