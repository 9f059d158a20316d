#include "systems/batch_runner.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/error.hpp"
#include "core/event_queue.hpp"
#include "core/random.hpp"
#include "core/stats.hpp"
#include "fault/faulty_harvester.hpp"
#include "obs/trace.hpp"

namespace msehsim::systems {

namespace {

/// Mid-run snapshot of the storage-boundary accumulators, taken by a
/// one-shot event at duration/2. Feeds
/// obs::EnergyLedger::storage_loss_first_half_j, the superlinear-leak
/// detector's probe.
struct MidRunProbe {
  double charged_j{0.0};
  double discharged_j{0.0};
  double stored_j{0.0};
  bool sampled{false};
};

/// Fixed-cadence run-health sampler of one lane. Registered as the lane's
/// LAST periodic, so a sample reads the platform at the start of the step
/// it falls in — after every management callback of the same dispatch,
/// before the step itself. Strictly read-only over the platform: enabling
/// it cannot change results.
class TimelineSampler {
 public:
  std::shared_ptr<obs::Timeline> timeline;

  /// Builds the column table for @p p (5 scalar columns + 2 per source)
  /// and pre-reserves for @p duration at @p cadence.
  void init(Platform& p, Seconds cadence, Seconds duration);
  /// Appends one sample at @p now. Powers are trailing deltas of the
  /// platform's energy accumulators over the inter-sample gap; the first
  /// sample reports 0 W.
  void sample(Seconds now);

 private:
  Platform* platform_{nullptr};
  std::vector<double> prev_transducer_j_;
  std::vector<double> prev_delivered_j_;
  double prev_t_s_{0.0};
  bool first_{true};
  std::vector<double> row_;
};

void TimelineSampler::init(Platform& p, Seconds cadence, Seconds duration) {
  platform_ = &p;
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
  timeline->reserve(
      static_cast<std::size_t>(duration.value() / cadence.value()) + 1);
  prev_transducer_j_.assign(sources, 0.0);
  prev_delivered_j_.assign(sources, 0.0);
  prev_t_s_ = 0.0;
  first_ = true;
  row_.assign(timeline->column_count(), 0.0);
}

void TimelineSampler::sample(Seconds now) {
  row_[0] = platform_->ambient_soc();
  row_[1] = platform_->total_stored().value();
  row_[2] = platform_->unserved_energy().value();
  // Highest engaged backup stage as 1-based index (0 = chain idle or absent)
  // — deeper stages only engage once their predecessors are in, so the
  // maximum is the ladder's current depth.
  double stage = 0.0;
  if (const auto* chain = platform_->backup_chain()) {
    for (std::size_t i = 0; i < chain->stage_count(); ++i)
      if (chain->stage_engaged(i)) stage = static_cast<double>(i + 1);
  }
  row_[3] = stage;
  row_[4] = platform_->bus_voltage().value();
  const double gap_s = now.value() - prev_t_s_;
  for (std::size_t i = 0; i < platform_->input_count(); ++i) {
    const auto& chain = platform_->input(i);
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
                                 const MidRunProbe& probe) {
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

/// Summarizes a finished lane into a RunResult, so exports, ledger,
/// metrics and survivability are assembled by one piece of code.
/// @p injector is the lane's armed injector, if any.
RunResult assemble_run_result(Platform& platform, Seconds duration,
                              const fault::FaultInjector* injector,
                              Joules initial_stored,
                              const RunningStats& input_stats,
                              const MidRunProbe& probe,
                              std::shared_ptr<const obs::Timeline> timeline) {
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

/// BatchRunner's inputs: a step and a horizon the clock can reach.
void require_run_bounds(Seconds dt, Seconds duration) {
  require_spec(std::isfinite(dt.value()) && dt.value() > 0.0,
               "BatchRunner: dt must be finite and > 0");
  require_spec(std::isfinite(duration.value()) && duration.value() > 0.0,
               "BatchRunner: duration must be finite and > 0");
}

}  // namespace

/// Per-lane state: the platform, its event queue and what the run
/// accumulates for its RunResult.
struct BatchRunner::Lane {
  Platform* platform{nullptr};
  double next_event_s{0.0};  ///< earliest pending event, refreshed on dispatch
  fault::FaultInjector* injector{nullptr};
  EventQueue events;
  RunningStats input_stats;
  Pcg32 query_rng{kQuerySeed, stream_key("queries")};
  MidRunProbe probe;
  TimelineSampler sampler;
  Joules initial_stored{0.0};
  bool deliver_queries{false};
};

BatchRunner::BatchRunner(env::EnvironmentModel& environment, Seconds duration,
                         RunOptions options)
    : environment_(&environment),
      duration_(duration),
      options_(options) {
  require_run_bounds(options_.dt, duration_);
}

BatchRunner::BatchRunner(std::shared_ptr<const env::CompiledTrace> trace,
                         Seconds duration, RunOptions options)
    : owned_environment_(
          std::make_unique<env::CompiledEnvironment>(std::move(trace))),
      environment_(owned_environment_.get()),
      duration_(duration),
      options_(options) {
  require_run_bounds(options_.dt, duration_);
  require_spec(options_.dt.value() ==
                   owned_environment_->trace().dt().value(),
               "BatchRunner: options.dt does not match the compiled dt");
}

BatchRunner::~BatchRunner() { detach_pv_shares(); }

void BatchRunner::share_pv_curve(harvest::Harvester& h) {
  harvest::Harvester* inner = &h;
  while (auto* faulty = dynamic_cast<fault::FaultyHarvester*>(inner))
    inner = &faulty->inner();
  auto* panel = dynamic_cast<harvest::PvPanel*>(inner);
  if (panel == nullptr) return;
  auto it = std::find_if(pv_shares_.begin(), pv_shares_.end(),
                         [&](const auto& s) { return s.first == panel->params(); });
  if (it == pv_shares_.end())
    it = pv_shares_.emplace(pv_shares_.end(), panel->params(),
                            std::make_unique<harvest::PvCurveShare>());
  panel->set_curve_share(it->second.get());
  shared_panels_.push_back(panel);
}

void BatchRunner::detach_pv_shares() {
  for (harvest::PvPanel* panel : shared_panels_) panel->set_curve_share(nullptr);
  shared_panels_.clear();
}

std::size_t BatchRunner::add_lane(Platform& platform,
                                  fault::FaultInjector* injector) {
  require_spec(!ran_, "BatchRunner::add_lane after run()");
  auto lane = std::make_unique<Lane>();
  lane->platform = &platform;
  lane->injector = injector;
  lane->initial_stored = platform.total_stored();
  lane->deliver_queries = options_.mean_query_interval.value() > 0.0 &&
                          platform.node() != nullptr;

  // Event registrations in one fixed order, so periodics fire in the same
  // sequence within a dispatch and one-shots get the same FIFO sequence
  // numbers (the same-time tiebreak) in every lane: management periodic,
  // mid-run probe, the injector's schedule, then the timeline.
  Platform* p = &platform;
  lane->events.every(options_.management_period,
                     [p](Seconds now) { p->management_tick(now); });
  MidRunProbe* probe = &lane->probe;
  lane->events.at(Seconds{duration_.value() * 0.5}, [p, probe](Seconds) {
    probe->charged_j = p->storage_charged_energy().value();
    probe->discharged_j = p->storage_discharged_energy().value();
    probe->stored_j = p->total_stored().value();
    probe->sampled = true;
  });
  if (injector != nullptr) injector->arm(lane->events);
  // Run-health timeline: registered LAST, so the sample reads the platform
  // after every other callback of the same dispatch. every() consumes no
  // one-shot sequence number, so injector events keep their FIFO
  // tiebreaks.
  if (options_.timeline_dt.value() > 0.0) {
    lane->sampler.init(platform, options_.timeline_dt, duration_);
    TimelineSampler* sampler = &lane->sampler;
    lane->events.every(options_.timeline_dt,
                       [sampler](Seconds now) { sampler->sample(now); });
  }

  for (std::size_t i = 0; i < platform.input_count(); ++i)
    share_pv_curve(platform.input(i).harvester());

  lanes_.push_back(std::move(lane));
  return lanes_.size() - 1;
}

std::vector<RunResult> BatchRunner::run() {
  require_spec(!ran_, "BatchRunner::run: already ran");
  ran_ = true;
  obs::Span run_span{"batch_runner.run", "systems"};
  // Span tracing is read once per run; when it is on, 1 in every
  // kStepSampleStride lane-steps is timed as "platform.step", counted here
  // so concurrent runs share no counter.
  const bool traced = obs::TraceCollector::instance().enabled();
  std::uint64_t lane_steps = 0;

  const Seconds dt = options_.dt;
  const bool query_traffic = options_.mean_query_interval.value() > 0.0;
  // Poisson arrivals discretized per step.
  const double p_arrival =
      query_traffic
          ? std::min(1.0, dt.value() / options_.mean_query_interval.value())
          : 0.0;

  for (auto& lane : lanes_)
    lane->next_event_s = lane->events.next_scheduled().value();

  // The one clock: now is the k-fold accumulated sum of dt from zero, and
  // the half-step tolerance keeps floating-point drift from adding a step
  // (0.1 s steps over 1 s run 10 steps). Each step first fires the events
  // due in its window [now, now + dt), then runs the lanes' power flow.
  Seconds now{0.0};
  while (now + dt * 0.5 < duration_) {
    // One environment step for the whole batch. These (now, dt) pairs are
    // the anchor env::CompiledTrace compiles against.
    const env::AmbientConditions conditions = environment_->advance(now, dt);
    const Seconds horizon = now + dt;

    for (auto& lane_ptr : lanes_) {
      Lane& lane = *lane_ptr;
      // An event is due iff next_scheduled() < now + dt. On quiet steps
      // (the common case) the lane skips its queue entirely; dispatch is a
      // pure function of the queue and the window, so skipping a no-op
      // dispatch cannot change a byte.
      if (lane.next_event_s < horizon.value()) {
        lane.events.dispatch(now, dt);
        lane.next_event_s = lane.events.next_scheduled().value();
      }
      Platform& platform = *lane.platform;
      {
        const bool timed =
            traced &&
            lane_steps++ % obs::TraceCollector::kStepSampleStride == 0;
        obs::Span step_span{timed ? "platform.step" : nullptr, "systems"};
        platform.step(conditions, now, dt);
      }
      lane.input_stats.add(platform.last_input_power().value(), dt);
      if (lane.deliver_queries && lane.query_rng.bernoulli(p_arrival)) {
        platform.node()->deliver_query(platform.rail_voltage());
      }
    }

    now += dt;
  }
  detach_pv_shares();

  std::vector<RunResult> out;
  out.reserve(lanes_.size());
  for (auto& lane : lanes_) {
    out.push_back(assemble_run_result(
        *lane->platform, duration_, lane->injector, lane->initial_stored,
        lane->input_stats, lane->probe, std::move(lane->sampler.timeline)));
  }
  return out;
}

}  // namespace msehsim::systems
