// Compiled ambient traces: synthesize once, replay everywhere.
//
// Profiling campaigns (DESIGN.md §8) showed that after the MPP work was
// cached, the next per-step cost left in a grid job was the environment:
// every job under one (scenario, env-seed) pair re-synthesizes the *same*
// AmbientConditions timeline through up to eight optional virtual channels,
// each burning transcendentals and RNG draws per step. A CompiledTrace is
// the EnHANTs-style answer — an immutable, structure-of-arrays snapshot of
// the full timeline, compiled once per (scenario, env-seed, dt, duration)
// and shared read-only across every platform variant's job, with a
// per-block CompiledEnvironment cursor for playback that is O(1) per step
// and dispatches through zero virtual channels.
//
// A trace owns its channel arrays when freshly compiled, or views them
// inside a read-only memory mapping when loaded from the persistent
// env::TraceCache (trace_cache.hpp) — playback is byte-identical either
// way, because both paths hold the exact doubles the source produced.
//
// Determinism contract: compilation replays exactly the stepping scheme of
// systems::BatchRunner::run (now accumulated from zero by repeated += dt,
// one advance(now, dt) per step), and playback returns the stored doubles
// verbatim, so a run over a CompiledEnvironment is byte-identical to a run
// over the freshly synthesized source environment.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "env/conditions.hpp"
#include "env/environment.hpp"

namespace msehsim::env {

/// Immutable structure-of-arrays snapshot of a scenario's ambient timeline,
/// one slot per dt step. Channels that are identically +0.0 over the whole
/// timeline are elided (their array is dropped and playback reads zero), so
/// a two-channel outdoor site does not pay eight arrays of storage.
class CompiledTrace {
 public:
  /// One array per AmbientConditions field, in declaration order. This is
  /// the channel schema the TraceCache hashes into its invalidation key: a
  /// new field means a new schema means every old cache entry misses.
  static constexpr int kChannelCount = 8;
  [[nodiscard]] static const std::array<const char*, kChannelCount>&
  channel_names();

  /// Compiles @p source over [0, duration) at @p dt, mutating the source's
  /// generator state exactly as a live run would.
  CompiledTrace(EnvironmentModel& source, Seconds dt, Seconds duration);

  /// Convenience: compile into the shared_ptr form campaign jobs consume.
  static std::shared_ptr<const CompiledTrace> compile(EnvironmentModel& source,
                                                      Seconds dt,
                                                      Seconds duration);

  // view_ points into owned_ (or a mapping); copying/moving would dangle it.
  // Traces live behind shared_ptr<const CompiledTrace> anyway.
  CompiledTrace(const CompiledTrace&) = delete;
  CompiledTrace& operator=(const CompiledTrace&) = delete;

  [[nodiscard]] std::size_t step_count() const { return steps_; }
  [[nodiscard]] Seconds dt() const { return dt_; }
  [[nodiscard]] Seconds duration() const { return duration_; }
  [[nodiscard]] const std::string& description() const { return description_; }

  /// Conditions of slot @p step (elided channels read +0.0).
  [[nodiscard]] AmbientConditions at(std::size_t step) const;

  /// Bytes held by the channel arrays after zero-channel elision (owned
  /// traces), or the size of the read-only mapping (cache-loaded traces).
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Channels that survived elision (diagnostics / tests).
  [[nodiscard]] int stored_channels() const;

  /// True when the arrays live in a TraceCache memory mapping rather than
  /// owned vectors.
  [[nodiscard]] bool mapped() const { return backing_ != nullptr; }

  /// Channel @p ch's step_count() doubles, or nullptr when elided. The
  /// serialization surface used by env::TraceCache.
  [[nodiscard]] const double* channel(int ch) const {
    return view_[static_cast<std::size_t>(ch)];
  }

 private:
  friend class TraceCache;
  CompiledTrace() = default;  // mapped-construction path (TraceCache::load)

  [[nodiscard]] double slot(int ch, std::size_t i) const {
    const double* v = view_[static_cast<std::size_t>(ch)];
    return v == nullptr ? 0.0 : v[i];
  }

  Seconds dt_{1.0};
  Seconds duration_{0.0};
  std::size_t steps_{0};
  std::string description_;
  /// Owned storage for freshly compiled traces (all empty when mapped).
  std::array<std::vector<double>, kChannelCount> owned_{};
  /// Per-channel data pointer: into owned_ or into the mapping; nullptr for
  /// an elided channel.
  std::array<const double*, kChannelCount> view_{};
  /// Keep-alive for the read-only file mapping backing view_ (mapped path).
  std::shared_ptr<const void> backing_;
  std::size_t mapped_bytes_{0};
};

/// Lightweight playback cursor over a shared CompiledTrace. Each
/// systems::BatchRunner owns its own cursor, so read-only sharing of the
/// snapshot keeps the isolation-by-construction model intact. Playback wraps modulo the
/// compiled duration (like TraceEnvironment), so a trace compiled for one
/// loop can also drive longer exploratory runs.
class CompiledEnvironment final : public EnvironmentModel {
 public:
  explicit CompiledEnvironment(std::shared_ptr<const CompiledTrace> trace);

  /// @p dt must equal the compiled dt — a mismatched step would silently
  /// resample the timeline and break the byte-identity contract.
  AmbientConditions advance(Seconds now, Seconds dt) override;
  [[nodiscard]] std::string description() const override;

  [[nodiscard]] const CompiledTrace& trace() const { return *trace_; }

 private:
  std::shared_ptr<const CompiledTrace> trace_;
};

}  // namespace msehsim::env
