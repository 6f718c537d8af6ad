#!/usr/bin/env python3
"""Smoke test of the whole-stack benchmark, at a tiny world size.

Usage (from the repository root):

    python3 e2ebench/smoke_test.py

For every workload it runs e2ebench/run.py --tiny and checks that:
  * every metric name and unit matches BENCHMARK.json, untraced and traced;
  * the run reports itself correct with no failed op;
  * two runs of one seed agree exactly on the simulated outcome digest,
    on sim_makespan_s.*, on ops_completed_frac and on every per-layer
    counter (unit "count");
  * two seeds generate different inputs.
Exits 1 on the first failed check, 0 when all pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("heartbeat-registry", "flow-scatter", "defended-churn")
EXACT_END_TO_END = ("ops_completed_frac", "sim_makespan_s.p50", "sim_makespan_s.p99")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
        fail(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = [l for l in proc.stderr.splitlines() if l.startswith("detail ")]
    if not details:
        fail(f"{workload} seed {seed} trace {trace}: no detail line")
    return result, json.loads(details[-1][len("detail "):])


def fail(message):
    print(f"FAIL {message}", flush=True)
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in WORKLOADS:
        runs = {}
        for seed, trace in ((1, 0), (1, 0), (2, 0), (1, 1), (1, 1)):
            result, detail = run(workload, seed, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != units[trace]:
                fail(f"{workload} trace {trace}: metric names/units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] != 0:
                fail(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
                     f"failed={result['failed']} ({detail['why']})")
            runs.setdefault((seed, trace), []).append((result, detail))

        (a, da), (b, db) = runs[(1, 0)]
        if da["digest"] != db["digest"]:
            fail(f"{workload}: outcome digest differs between runs of one seed")
        for name in EXACT_END_TO_END:
            if a["metrics"][name]["value"] != b["metrics"][name]["value"]:
                fail(f"{workload}: {name} differs between runs of one seed")
        (ta, _), (tb, _) = runs[(1, 1)]
        for name, unit in units[1].items():
            if unit == "count" and ta["metrics"][name]["value"] != tb["metrics"][name]["value"]:
                fail(f"{workload}: counter {name} differs between runs of one seed")
        if runs[(2, 0)][0][1]["inputs_digest"] == da["inputs_digest"]:
            fail(f"{workload}: seeds 1 and 2 generated the same inputs")
        print(f"ok   {workload}", flush=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
