#!/usr/bin/env python3
"""Smoke test for the benchmark: every workload at a tiny horizon.

    python3 perfbench/smoke_test.py        (from the repository root)

Checks, per workload:
  - the untraced run prints every end_to_end metric of BENCHMARK.json with
    its unit, reports correct with no failures;
  - a second run with the same seed reproduces the same result digests;
  - the traced run prints every per_layer metric with its unit.
Exits non-zero on the first failed check.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(workload, result, wanted):
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"FAIL {workload}: correct={result['correct']} "
                 f"failed={result['failed']} attempted={result['attempted']}")
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            sys.exit(f"FAIL {workload}: metric {m['name']} missing")
        if got[m["name"]]["unit"] != m["unit"]:
            sys.exit(f"FAIL {workload}: {m['name']} unit {got[m['name']]['unit']}"
                     f" != {m['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        sys.exit(f"FAIL {workload}: unlisted metrics {sorted(extra)}")


def digests(notes):
    return [d for line in notes for d in re.findall(r"digest ([0-9a-f]{16})", line)]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        notes1, r1 = run(name, 0)
        check_metrics(name, r1, bench["end_to_end"])
        notes2, _ = run(name, 0)
        d1, d2 = digests(notes1), digests(notes2)
        if not d1 or d1 != d2:
            sys.exit(f"FAIL {name}: digests differ across runs: {d1} vs {d2}")
        _, r3 = run(name, 1)
        check_metrics(name, r3, bench["per_layer"])
        print(f"ok {name}: digests {' '.join(d1)}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
