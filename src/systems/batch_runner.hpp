// The step engine: every simulated run, one platform or many.
//
// A BatchRunner advances N lanes — platforms (and optional per-lane fault
// injectors) sharing one ambient timeline — in lockstep with one inner
// loop: the environment is advanced once per step and its conditions fed to
// every lane, and every lane advances through Platform::step. run_platform
// is a one-lane BatchRunner over a live environment; campaign::Campaign runs
// blocks of lanes over a shared env::CompiledTrace.
//
// Byte-identity contract: a lane's RunResult does not depend on which other
// lanes share its block, the block width, or the campaign's thread count,
// and a run over a CompiledTrace equals the run over the environment it was
// compiled from. The kernel guarantees this by construction:
//
//  - The step body is Platform::step itself, the body every component test
//    runs. DESIGN.md §8 records why there is no second, column-layout body.
//  - run() owns the one clock: now is the k-fold accumulated sum of dt from
//    zero. Each lane keeps its own core::EventQueue, so management
//    periodics, the mid-run ledger probe, timeline samples and one-shot
//    fault injections fire at the start of the step they fall in (same
//    FIFO tiebreak, registrations in one fixed order — see add_lane). On
//    steps where nothing is due — the common case — a lane skips dispatch
//    entirely, which is legal because "due" is a pure function of the queue
//    and the step window.
//  - Divergent per-lane behaviour (fault onsets, BackupChain switches, load
//    shed) lives inside the components a lane already owns.
//  - Every lane's result is assembled by the same code at the end of run(),
//    so exports, the energy ledger, metrics, and the survivability report
//    cannot drift between lanes.
//  - Twin PV panels share their curve solves: add_lane attaches one
//    harvest::PvCurveShare per distinct PvPanel::Params to every panel of
//    the block with those Params (a FaultyHarvester's inner panel too). The
//    lanes step the same ambient slot one after another, so only the first
//    twin runs the MPP Newton solve and the expm1 of a step; the others get
//    the stored answer, which is bit-equal to a fresh solve because the
//    share's keys are the exact bits the curve depends on.
//
// Constraints: RunOptions holds plain values shared by every lane (per-lane
// injectors go to add_lane), a CompiledTrace's dt must equal options.dt, and
// lanes must not hot-swap components mid-run (fault events mutate
// components in place). Injectors must be fully built before add_lane —
// fault::Schedule wraps harvesters at build time, and add_lane attaches PV
// curve shares to the harvesters it sees then.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/units.hpp"
#include "env/compiled_trace.hpp"
#include "env/environment.hpp"
#include "fault/injector.hpp"
#include "harvest/transducers.hpp"
#include "systems/platform.hpp"
#include "systems/runner.hpp"

namespace msehsim::systems {

class BatchRunner {
 public:
  /// @p environment is advanced once per step (now accumulated from zero by
  /// repeated += dt) and must outlive run(); @p duration and @p options as
  /// for run_platform. options.dt and @p duration must be finite and > 0
  /// (SpecError).
  BatchRunner(env::EnvironmentModel& environment, Seconds duration,
              RunOptions options);
  /// Replays @p trace, the shared ambient timeline, through an owned
  /// env::CompiledEnvironment cursor.
  BatchRunner(std::shared_ptr<const env::CompiledTrace> trace,
              Seconds duration, RunOptions options);
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Adds a lane. @p platform must outlive run() (or the runner, if run()
  /// is never called: the destructor detaches the curve shares add_lane
  /// attached to its PV panels); @p injector (optional) must already be
  /// fully built against this platform and is armed on the lane's event
  /// queue. Returns the lane index (result slot in run()'s return).
  std::size_t add_lane(Platform& platform,
                       fault::FaultInjector* injector = nullptr);

  /// Advances every lane in lockstep to @p duration and returns one
  /// RunResult per lane, in add_lane order. Runs once. While span tracing
  /// is enabled, 1 in every obs::TraceCollector::kStepSampleStride
  /// lane-steps is recorded as a "platform.step" span.
  std::vector<RunResult> run();

 private:
  struct Lane;  // per-lane engine state (batch_runner.cpp)

  /// Attaches the block's curve share for @p h's PvPanel::Params, when @p h
  /// is a PvPanel or a fault wrapper around one.
  void share_pv_curve(harvest::Harvester& h);
  void detach_pv_shares();

  /// Set by the trace constructor; environment_ then points at it.
  std::unique_ptr<env::CompiledEnvironment> owned_environment_;
  env::EnvironmentModel* environment_;
  Seconds duration_;
  RunOptions options_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  bool ran_{false};
  /// One curve share per distinct panel Params, and every panel attached.
  std::vector<std::pair<harvest::PvPanel::Params,
                        std::unique_ptr<harvest::PvCurveShare>>>
      pv_shares_;
  std::vector<harvest::PvPanel*> shared_panels_;
};

}  // namespace msehsim::systems
