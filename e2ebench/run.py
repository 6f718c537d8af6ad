#!/usr/bin/env python3
"""Whole-stack peerlab benchmark: build, run one workload, print its metrics.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the peerlab libraries from ./src and the benchmark program
(e2ebench/world.cpp) into ./.bench_build/e2ebench, runs it once
and relays its result: the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones listed in BENCHMARK.json,
with --trace 1 the per-layer ones; the traced run also writes its layer
self-time table to ./.bench_build/e2ebench/layers-<workload>.txt.

Extra flag: --tiny runs a shrunken world (used by smoke_test.py).
Exit codes: 0 ok, 1 a correctness check failed, 2 build or usage error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2e_world")
WORKLOADS = ("heartbeat-registry", "flow-scatter", "defended-churn")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds e2e_world; False on failure."""
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--parallel", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=840, env=env)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {' '.join(cmd)}: {err}")
            return False
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
    return True


def expected_metrics(trace):
    """(name -> unit) from BENCHMARK.json at the root, or None if absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Returns a list of problems with e2e_world's result line."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as err:
        return [f"result is not JSON: {err}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"unexpected result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m.get("unit") for name, m in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
            problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, "
                            f"extra {extra}, wrong unit {wrong}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--layers", os.path.join(BUILD, f"layers-{args.workload}.txt")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"e2e_world exceeded {RUN_TIMEOUT_S} s")
        return 2
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode not in (0, 1) or not lines:
        log(f"e2e_world failed with exit code {proc.returncode}")
        return 2
    problems = check_result(lines[-1], args.trace)
    if problems:
        for p in problems:
            log(p)
        return 2
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
