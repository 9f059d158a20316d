#include "systems/runner.hpp"

#include <algorithm>

#include "core/fmt.hpp"
#include "fault/faulty_harvester.hpp"
#include "obs/trace.hpp"
#include "systems/batch_runner.hpp"

namespace msehsim::systems {

namespace {

/// Collects fault bookkeeping scattered across the platform's components.
FaultReport collect_faults(Platform& platform,
                           const fault::FaultInjector* injector) {
  FaultReport f;
  if (injector != nullptr) f.injected = injector->counters();
  for (std::size_t i = 0; i < platform.input_count(); ++i) {
    auto& chain = platform.input(i);
    if (const auto* fh =
            dynamic_cast<const fault::FaultyHarvester*>(&chain.harvester())) {
      f.harvester_faulted_steps += fh->faulted_steps();
      f.harvester_transitions += fh->transitions();
    }
    f.converter_shutdowns += chain.thermal_shutdowns();
    f.converter_shutdown_steps += chain.shutdown_steps();
  }
  f.bus_fault_hits = platform.i2c().fault_hits();
  f.bus_naks = platform.i2c().nak_count();
  if (const auto* digital =
          dynamic_cast<const manager::DigitalBusMonitor*>(platform.monitor())) {
    f.retry_attempts = digital->attempts();
    f.retry_retries = digital->retries();
    f.retry_give_ups = digital->give_ups();
  }
  if (const auto* failover = platform.failover_policy()) {
    f.failovers = failover->failovers();
    f.failbacks = failover->failbacks();
    f.failover_latency_count = failover->failover_latency_count();
    f.failover_latency_total_s = failover->failover_latency_total().value();
  }
  if (const auto* chain = platform.backup_chain()) {
    f.failovers = chain->failovers();
    f.failbacks = chain->failbacks();
    f.failover_latency_count = chain->failover_latency_count();
    f.failover_latency_total_s = chain->failover_latency_total().value();
  }
  return f;
}

/// Folds the platform's survivability accumulators and backup-chain stage
/// stats into the fixed-slot report.
SurvivabilityReport collect_survivability(Platform& platform, Seconds duration) {
  SurvivabilityReport s;
  s.time_to_first_unserved_s = platform.first_unserved_time().value();
  // quiescent and bus-load accumulate as *demanded* (the unserved part is
  // the slice of them no store could cover), so together they are the total
  // bus demand the fraction normalizes by.
  const double demand =
      platform.quiescent_energy().value() + platform.bus_load_energy().value();
  if (demand > 0.0)
    s.unserved_energy_fraction = platform.unserved_energy().value() / demand;
  if (duration.value() > 0.0)
    s.energy_neutral_fraction =
        platform.energy_neutral_time().value() / duration.value();
  if (const auto* chain = platform.backup_chain()) {
    s.backup_stages = chain->stage_count();
    const std::size_t reported = std::min<std::size_t>(
        chain->stage_count(), SurvivabilityReport::kReportedBackupStages);
    for (std::size_t i = 0; i < reported; ++i) {
      s.stage_residency_s[i] = chain->stage_stats(i).residency.value();
      s.stage_switch_ins[i] = chain->stage_stats(i).switch_ins;
    }
  }
  return s;
}

/// Fills the energy-flow ledger (and the MPP counters riding on its source
/// rows) from the accumulators the platform integrated during the run.
obs::EnergyLedger collect_ledger(Platform& platform, Joules initial_stored,
                                 const detail::MidRunProbe& probe) {
  obs::EnergyLedger ledger;
  ledger.harvested_j = platform.harvested_energy().value();
  ledger.storage_discharged_j = platform.storage_discharged_energy().value();
  ledger.unserved_j = platform.unserved_energy().value();
  ledger.quiescent_j = platform.quiescent_energy().value();
  ledger.bus_load_j = platform.bus_load_energy().value();
  ledger.storage_charged_j = platform.storage_charged_energy().value();
  ledger.wasted_j = platform.wasted_energy().value();
  ledger.rail_load_j = platform.load_energy().value();
  ledger.output_loss_j = platform.output_loss_energy().value();
  ledger.initial_stored_j = initial_stored.value();
  ledger.final_stored_j = platform.total_stored().value();
  ledger.storage_delta_j = ledger.final_stored_j - ledger.initial_stored_j;
  ledger.storage_loss_j = ledger.storage_charged_j -
                          ledger.storage_discharged_j - ledger.storage_delta_j;
  if (probe.sampled) {
    // Same derivation as storage_loss_j, cut off at the duration/2 snapshot.
    ledger.storage_loss_first_half_j =
        probe.charged_j - probe.discharged_j -
        (probe.stored_j - ledger.initial_stored_j);
  }
  ledger.sources.reserve(platform.input_count());
  for (std::size_t i = 0; i < platform.input_count(); ++i) {
    const auto& chain = platform.input(i);
    obs::SourceRow row;
    row.name = std::string(chain.harvester().name());
    row.kind = std::string(harvest::to_string(chain.harvester().kind()));
    row.transducer_j = chain.transducer_energy().value();
    row.conversion_loss_j = chain.conversion_loss_energy().value();
    row.tracker_overhead_j = chain.tracker_paid_energy().value();
    row.delivered_j = chain.delivered_energy().value();
    row.mpp_cache_hits = chain.harvester().mpp_cache_hits();
    row.mpp_recomputes = chain.harvester().mpp_recomputes();
    ledger.transducer_j += row.transducer_j;
    ledger.conversion_loss_j += row.conversion_loss_j;
    ledger.tracker_overhead_j += row.tracker_overhead_j;
    ledger.sources.push_back(std::move(row));
  }
  const double total_delivered = ledger.harvested_j;
  if (total_delivered > 0.0) {
    for (auto& row : ledger.sources) row.share = row.delivered_j / total_delivered;
  }
  return ledger;
}

double u64(std::uint64_t v) { return static_cast<double>(v); }

}  // namespace

const std::vector<RunResultField>& run_result_fields() {
  using R = RunResult;
  static const std::vector<RunResultField> kFields = {
      {"duration_s", [](const R& r) { return r.duration.value(); }, false},
      {"harvested_j", [](const R& r) { return r.harvested.value(); }, false},
      {"load_j", [](const R& r) { return r.load.value(); }, false},
      {"quiescent_j", [](const R& r) { return r.quiescent.value(); }, false},
      {"wasted_j", [](const R& r) { return r.wasted.value(); }, false},
      {"unmet_j", [](const R& r) { return r.unmet.value(); }, false},
      {"packets", [](const R& r) { return u64(r.packets); }, true},
      {"queries_received", [](const R& r) { return u64(r.queries_received); },
       true},
      {"queries_answered", [](const R& r) { return u64(r.queries_answered); },
       true},
      {"reboots", [](const R& r) { return u64(r.reboots); }, true},
      {"brownouts", [](const R& r) { return u64(r.brownouts); }, true},
      {"availability", [](const R& r) { return r.availability; }, false},
      {"generation_fraction",
       [](const R& r) { return r.generation_fraction; }, false},
      {"final_ambient_soc", [](const R& r) { return r.final_ambient_soc; },
       false},
      {"final_stored_j", [](const R& r) { return r.final_stored.value(); },
       false},
      {"time_to_first_brownout_s",
       [](const R& r) { return r.time_to_first_brownout_s; }, false},
      {"mpp_cache_hits", [](const R& r) { return u64(r.mpp_cache_hits); },
       true},
      {"mpp_recomputes", [](const R& r) { return u64(r.mpp_recomputes); },
       true},
      {"faults.injected.harvester",
       [](const R& r) { return u64(r.faults.injected.harvester); }, true},
      {"faults.injected.converter",
       [](const R& r) { return u64(r.faults.injected.converter); }, true},
      {"faults.injected.storage",
       [](const R& r) { return u64(r.faults.injected.storage); }, true},
      {"faults.injected.bus",
       [](const R& r) { return u64(r.faults.injected.bus); }, true},
      {"faults.injected.node",
       [](const R& r) { return u64(r.faults.injected.node); }, true},
      {"faults.injected.environment",
       [](const R& r) { return u64(r.faults.injected.environment); }, true},
      {"faults.harvester_faulted_steps",
       [](const R& r) { return u64(r.faults.harvester_faulted_steps); }, true},
      {"faults.harvester_transitions",
       [](const R& r) { return u64(r.faults.harvester_transitions); }, true},
      {"faults.converter_shutdowns",
       [](const R& r) { return u64(r.faults.converter_shutdowns); }, true},
      {"faults.converter_shutdown_steps",
       [](const R& r) { return u64(r.faults.converter_shutdown_steps); }, true},
      {"faults.bus_fault_hits",
       [](const R& r) { return u64(r.faults.bus_fault_hits); }, true},
      {"faults.bus_naks", [](const R& r) { return u64(r.faults.bus_naks); },
       true},
      {"faults.retry_attempts",
       [](const R& r) { return u64(r.faults.retry_attempts); }, true},
      {"faults.retry_retries",
       [](const R& r) { return u64(r.faults.retry_retries); }, true},
      {"faults.retry_give_ups",
       [](const R& r) { return u64(r.faults.retry_give_ups); }, true},
      {"faults.failovers", [](const R& r) { return u64(r.faults.failovers); },
       true},
      {"faults.failbacks", [](const R& r) { return u64(r.faults.failbacks); },
       true},
      {"faults.failover_latency_count",
       [](const R& r) { return u64(r.faults.failover_latency_count); }, true},
      {"faults.failover_latency_total_s",
       [](const R& r) { return r.faults.failover_latency_total_s; }, false},
      {"faults.mean_time_to_failover_s",
       [](const R& r) { return r.faults.mean_time_to_failover_s(); }, false},
      {"survivability.time_to_first_unserved_s",
       [](const R& r) { return r.survivability.time_to_first_unserved_s; },
       false},
      {"survivability.unserved_energy_fraction",
       [](const R& r) { return r.survivability.unserved_energy_fraction; },
       false},
      {"survivability.energy_neutral_fraction",
       [](const R& r) { return r.survivability.energy_neutral_fraction; },
       false},
      {"survivability.backup_stages",
       [](const R& r) { return u64(r.survivability.backup_stages); }, true},
      {"survivability.stage0.residency_s",
       [](const R& r) { return r.survivability.stage_residency_s[0]; }, false},
      {"survivability.stage0.switch_ins",
       [](const R& r) { return u64(r.survivability.stage_switch_ins[0]); },
       true},
      {"survivability.stage1.residency_s",
       [](const R& r) { return r.survivability.stage_residency_s[1]; }, false},
      {"survivability.stage1.switch_ins",
       [](const R& r) { return u64(r.survivability.stage_switch_ins[1]); },
       true},
      {"survivability.stage2.residency_s",
       [](const R& r) { return r.survivability.stage_residency_s[2]; }, false},
      {"survivability.stage2.switch_ins",
       [](const R& r) { return u64(r.survivability.stage_switch_ins[2]); },
       true},
      {"ledger.harvested_j", [](const R& r) { return r.ledger.harvested_j; },
       false},
      {"ledger.storage_discharged_j",
       [](const R& r) { return r.ledger.storage_discharged_j; }, false},
      {"ledger.unserved_j", [](const R& r) { return r.ledger.unserved_j; },
       false},
      {"ledger.quiescent_j", [](const R& r) { return r.ledger.quiescent_j; },
       false},
      {"ledger.bus_load_j", [](const R& r) { return r.ledger.bus_load_j; },
       false},
      {"ledger.storage_charged_j",
       [](const R& r) { return r.ledger.storage_charged_j; }, false},
      {"ledger.wasted_j", [](const R& r) { return r.ledger.wasted_j; }, false},
      {"ledger.rail_load_j", [](const R& r) { return r.ledger.rail_load_j; },
       false},
      {"ledger.output_loss_j",
       [](const R& r) { return r.ledger.output_loss_j; }, false},
      {"ledger.initial_stored_j",
       [](const R& r) { return r.ledger.initial_stored_j; }, false},
      {"ledger.final_stored_j",
       [](const R& r) { return r.ledger.final_stored_j; }, false},
      {"ledger.storage_delta_j",
       [](const R& r) { return r.ledger.storage_delta_j; }, false},
      {"ledger.storage_loss_j",
       [](const R& r) { return r.ledger.storage_loss_j; }, false},
      {"ledger.storage_loss_first_half_j",
       [](const R& r) { return r.ledger.storage_loss_first_half_j; }, false},
      {"ledger.transducer_j", [](const R& r) { return r.ledger.transducer_j; },
       false},
      {"ledger.conversion_loss_j",
       [](const R& r) { return r.ledger.conversion_loss_j; }, false},
      {"ledger.tracker_overhead_j",
       [](const R& r) { return r.ledger.tracker_overhead_j; }, false},
      {"ledger.residual_j", [](const R& r) { return r.ledger.residual_j(); },
       false},
  };
  return kFields;
}

RunResult run_platform(Platform& platform, env::EnvironmentModel& environment,
                       Seconds duration, const RunOptions& options,
                       fault::FaultInjector* injector) {
  obs::Span span{"run_platform", "systems"};
  BatchRunner runner(environment, duration, options);
  runner.add_lane(platform, injector);
  return std::move(runner.run().front());
}

void detail::TimelineSampler::init(Platform& p, Seconds cadence,
                                   Seconds duration) {
  platform = &p;
  const std::size_t sources = p.input_count();
  std::vector<std::string> columns = {"soc", "stored_j", "unserved_j",
                                      "backup_stage", "bus_voltage_v"};
  columns.reserve(columns.size() + 2 * sources);
  for (std::size_t i = 0; i < sources; ++i) {
    const std::string prefix = "source[" + std::to_string(i) + "].";
    columns.push_back(prefix + "harvested_w");
    columns.push_back(prefix + "delivered_w");
  }
  timeline = std::make_shared<obs::Timeline>(cadence, std::move(columns));
  if (duration.value() > 0.0)
    timeline->reserve(
        static_cast<std::size_t>(duration.value() / cadence.value()) + 1);
  prev_transducer_j_.assign(sources, 0.0);
  prev_delivered_j_.assign(sources, 0.0);
  prev_t_s_ = 0.0;
  first_ = true;
  row_.assign(timeline->column_count(), 0.0);
}

void detail::TimelineSampler::sample(Seconds now) {
  row_[0] = platform->ambient_soc();
  row_[1] = platform->total_stored().value();
  row_[2] = platform->unserved_energy().value();
  // Highest engaged backup stage as 1-based index (0 = chain idle or absent)
  // — deeper stages only engage once their predecessors are in, so the
  // maximum is the ladder's current depth.
  double stage = 0.0;
  if (const auto* chain = platform->backup_chain()) {
    for (std::size_t i = 0; i < chain->stage_count(); ++i)
      if (chain->stage_engaged(i)) stage = static_cast<double>(i + 1);
  }
  row_[3] = stage;
  row_[4] = platform->bus_voltage().value();
  const double gap_s = now.value() - prev_t_s_;
  for (std::size_t i = 0; i < platform->input_count(); ++i) {
    const auto& chain = platform->input(i);
    const double transducer_j = chain.transducer_energy().value();
    const double delivered_j = chain.delivered_energy().value();
    if (first_ || gap_s <= 0.0) {
      row_[5 + 2 * i] = 0.0;
      row_[6 + 2 * i] = 0.0;
    } else {
      row_[5 + 2 * i] = (transducer_j - prev_transducer_j_[i]) / gap_s;
      row_[6 + 2 * i] = (delivered_j - prev_delivered_j_[i]) / gap_s;
    }
    prev_transducer_j_[i] = transducer_j;
    prev_delivered_j_[i] = delivered_j;
  }
  prev_t_s_ = now.value();
  first_ = false;
  timeline->append(now.value(), row_.data(), row_.size());
}

RunResult detail::assemble_run_result(
    Platform& platform, Seconds duration, const fault::FaultInjector* injector,
    Joules initial_stored, const RunningStats& input_stats,
    const MidRunProbe& probe, std::shared_ptr<const obs::Timeline> timeline) {
  RunResult r;
  r.timeline = std::move(timeline);
  r.duration = duration;
  r.harvested = platform.harvested_energy();
  r.load = platform.load_energy();
  r.quiescent = platform.quiescent_energy();
  r.wasted = platform.wasted_energy();
  r.unmet = platform.unmet_energy();
  r.brownouts = platform.brownouts();
  r.generation_fraction = input_stats.fraction_positive();
  if (const auto* node = platform.node()) {
    r.packets = node->packets_sent();
    r.reboots = node->reboots();
    r.availability = node->availability();
    r.queries_received = node->queries_received();
    r.queries_answered = node->queries_answered();
  }
  r.final_ambient_soc = platform.ambient_soc();
  r.final_stored = platform.total_stored();
  r.time_to_first_brownout_s = platform.first_brownout_time().value();
  r.faults = collect_faults(platform, injector);
  r.survivability = collect_survivability(platform, duration);
  r.ledger = collect_ledger(platform, initial_stored, probe);
  for (const auto& source : r.ledger.sources) {
    r.mpp_cache_hits += source.mpp_cache_hits;
    r.mpp_recomputes += source.mpp_recomputes;
  }
  return r;
}

std::string to_string(const RunResult& r) {
  std::string out;
  out.reserve(2048);
  for (const auto& field : run_result_fields()) {
    out += field.name;
    out += '=';
    if (field.integral) {
      out += std::to_string(
          static_cast<unsigned long long>(field.get(r)));
    } else {
      // Locale-independent shortest round-trip form (core/fmt) — snprintf
      // %g honors LC_NUMERIC and would break byte-comparability.
      append_double(out, field.get(r));
    }
    out += '\n';
  }
  out += r.ledger.sources_to_string();
  return out;
}

obs::MetricsSnapshot metrics_snapshot(const RunResult& r) {
  obs::Registry registry;
  for (const auto& field : run_result_fields()) {
    if (field.integral) {
      registry.counter(field.name)
          .add(static_cast<std::uint64_t>(field.get(r)));
    } else {
      registry.gauge(field.name).set(field.get(r));
    }
  }
  for (std::size_t i = 0; i < r.ledger.sources.size(); ++i) {
    const auto& s = r.ledger.sources[i];
    const std::string prefix = "ledger.source[" + std::to_string(i) + "].";
    registry.gauge(prefix + "delivered_j").set(s.delivered_j);
    registry.gauge(prefix + "share").set(s.share);
    registry.counter(prefix + "mpp_cache_hits").add(s.mpp_cache_hits);
    registry.counter(prefix + "mpp_recomputes").add(s.mpp_recomputes);
  }
  return registry.snapshot();
}

}  // namespace msehsim::systems
