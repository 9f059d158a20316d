#!/bin/sh
# Refreshes BENCH_kernels.json at the repo root from a bench_simkernel run.
#
# Usage: bench/update_bench_baseline.sh [build-dir] [label]
#
# The file keeps two parts:
#   - "history": one compact record per labelled run of BM_SystemA_DayRun
#     and (when present) the BM_Campaign_Grid rows, appended on every
#     invocation, so the throughput trends survive rebaselines;
#   - "current": the full google-benchmark JSON of the latest run.
#
# Also available as the `bench_baseline` CMake target.
set -e
BUILD_DIR="${1:-build}"
LABEL="${2:-$(git -C "$(dirname "$0")/.." rev-parse --short HEAD 2>/dev/null || echo unlabelled)}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="$ROOT/BENCH_kernels.json"
TMP="$(mktemp)"

"$BUILD_DIR/bench/bench_simkernel" --benchmark_format=json \
  --benchmark_min_time=1 > "$TMP"

# Observability-overhead pair (guarded: older build dirs may predate it).
OBS_TMP="$(mktemp)"
if [ -x "$BUILD_DIR/bench/bench_obs_overhead" ]; then
  "$BUILD_DIR/bench/bench_obs_overhead" --benchmark_format=json \
    --benchmark_min_time=1 > "$OBS_TMP"
else
  echo '{"benchmarks": []}' > "$OBS_TMP"
fi

python3 - "$TMP" "$OUT" "$LABEL" "$OBS_TMP" <<'EOF'
import json
import sys

run_path, out_path, label, obs_path = (
    sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4])
run = json.load(open(run_path))
obs_run = json.load(open(obs_path))

try:
    history = json.load(open(out_path)).get("history", [])
except (FileNotFoundError, json.JSONDecodeError):
    history = []

def find(name):
    return next((b for b in run["benchmarks"] if b["name"] == name), None)

day = find("BM_SystemA_DayRun")
record = {
    "label": label,
    "BM_SystemA_DayRun": {
        "real_time_ms": day["real_time"],
        "steps_per_second": day["items_per_second"],
    },
}
grid = find("BM_Campaign_Grid")
if grid is not None:
    record["BM_Campaign_Grid"] = {
        "real_time_ms": grid["real_time"],
        "steps_per_second": grid["items_per_second"],
    }
    warm = find("BM_Campaign_Grid_WarmCache")
    if warm is not None:
        record["BM_Campaign_Grid_WarmCache"] = {
            "real_time_ms": warm["real_time"],
            "steps_per_second": warm["items_per_second"],
        }
        record["campaign_warm_cache_speedup"] = (
            grid["real_time"] / warm["real_time"])

# Batched lane-kernel sweep: one row per lane width, plus the width-8 /
# width-1 ratio (the batching win proper, with the shared physics cost and
# warm trace cache held identical on both sides).
batched = {
    int(b["name"].rsplit("/", 1)[1]): b
    for b in run["benchmarks"]
    if b["name"].startswith("BM_Campaign_Batched/")
}
if batched:
    record["BM_Campaign_Batched"] = {
        str(width): {
            "real_time_ms": b["real_time"],
            "steps_per_second": b["items_per_second"],
        }
        for width, b in sorted(batched.items())
    }
    if 1 in batched and 8 in batched:
        record["campaign_lane_kernel_speedup"] = (
            batched[1]["real_time"] / batched[8]["real_time"])
        # Same ratio, recorded under its own key from the SoA lane-state
        # rework onward. Width 1 now runs one-lane blocks, which take the
        # SoA body too, so newer rows measure lockstep batching over SoA
        # rather than the SoA win proper. (History rows without this key
        # predate the SoA path.)
        record["campaign_soa_speedup"] = (
            batched[1]["real_time"] / batched[8]["real_time"])
# Run-health timeline overhead: the default-cadence sampled day against its
# in-process control. The PR gate is <= 3% (timeline_overhead is the ratio,
# so the ceiling reads 1.03).
def find_obs(name):
    return next((b for b in obs_run["benchmarks"] if b["name"] == name), None)

obs_base = find_obs("BM_SystemA_DayRun_Base")
obs_timeline = find_obs("BM_SystemA_DayRun_Timeline")
if obs_base is not None and obs_timeline is not None:
    record["BM_SystemA_DayRun_Timeline"] = {
        "real_time_ms": obs_timeline["real_time"],
        "steps_per_second": obs_timeline["items_per_second"],
    }
    record["timeline_overhead"] = (
        obs_timeline["real_time"] / obs_base["real_time"])

history.append(record)

json.dump({"history": history, "current": run}, open(out_path, "w"), indent=1)
print(f"BENCH_kernels.json: {label}: "
      f"{day['items_per_second']:.3g} steps/s ({day['real_time']:.1f} ms/day)")
if grid is not None:
    print(f"  BM_Campaign_Grid: {grid['real_time']:.1f} ms")
if grid is not None and warm is not None:
    print(f"  BM_Campaign_Grid_WarmCache: {warm['real_time']:.1f} ms "
          f"({grid['real_time'] / warm['real_time']:.2f}x vs in-memory compile)")
if 1 in batched and 8 in batched:
    print(f"  BM_Campaign_Batched: width 1 {batched[1]['real_time']:.1f} ms "
          f"-> width 8 {batched[8]['real_time']:.1f} ms "
          f"(campaign_soa_speedup "
          f"{batched[1]['real_time'] / batched[8]['real_time']:.2f}x)")
if obs_base is not None and obs_timeline is not None:
    print(f"  BM_SystemA_DayRun_Timeline: {obs_timeline['real_time']:.1f} ms "
          f"vs {obs_base['real_time']:.1f} ms base "
          f"(timeline_overhead "
          f"{obs_timeline['real_time'] / obs_base['real_time']:.3f}x)")
EOF
rm -f "$TMP" "$OBS_TMP"
