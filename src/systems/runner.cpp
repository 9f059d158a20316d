#include "systems/runner.hpp"

#include "core/fmt.hpp"
#include "obs/trace.hpp"
#include "systems/batch_runner.hpp"

namespace msehsim::systems {

namespace {

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
