#!/usr/bin/env python3
"""Gate on e2ebench's exact counters: the deterministic half of its output.

For seeds 1-3 of each of the three e2ebench workloads this runs

    python3 e2ebench/run.py --workload <w> --seed <s> --seconds 1 --trace 0
    python3 e2ebench/run.py --workload <w> --seed <s> --seconds 1 --trace 1

and compares against tests/golden/e2e_counters.json:

  * digest (world 0's run digest, from the "detail" line);
  * sim_makespan_s.p50 / .p99 (untraced run: pooled over every world);
  * sim.events, net.datagrams.sent, overlay.heartbeats and
    selection.index.{rekeys,dense_sweeps,pulls_per_petition,fast_path_frac}
    (traced run: one repetition of world 0).

None of these depends on wall time or on --seconds: a 1-second run
yields the same values as a 30-second one. Wall-clock metrics stay out
of the gate. Values compare exactly; the file also records the compiler
that wrote it, since another toolchain or libm may legitimately round
differently (report such a mismatch, do not loosen the gate).

Usage (from anywhere):

    scripts/e2e_counters.py --check    # default; exit 1 on any difference
    scripts/e2e_counters.py --update   # rewrite the golden file

Exit codes: 0 match (or updated), 1 a value differs or a run is not
correct, 2 a run failed to build or start.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "e2e_counters.json"
WORKLOADS = ("heartbeat-registry", "flow-scatter", "defended-churn")
SEEDS = (1, 2, 3)
UNTRACED = ("sim_makespan_s.p50", "sim_makespan_s.p99")
TRACED = (
    "sim.events",
    "net.datagrams.sent",
    "overlay.heartbeats",
    "selection.index.rekeys",
    "selection.index.dense_sweeps",
    "selection.index.pulls_per_petition",
    "selection.index.fast_path_frac",
)


class RunError(Exception):
    """A run that failed to start (exit code 2) or was not correct (1)."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result, detail) of one e2ebench run."""
    cmd = [sys.executable, str(ROOT / "e2ebench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    details = [line for line in proc.stderr.splitlines() if line.startswith("detail ")]
    if proc.returncode not in (0, 1) or not lines or not details:
        sys.stderr.write(proc.stderr[-4000:])
        raise RunError(f"{' '.join(cmd[1:])} exited {proc.returncode}", 2)
    return json.loads(lines[-1]), json.loads(details[-1][len("detail "):])


def measure(workload: str, seed: int) -> dict:
    plain, detail = run(workload, seed, 0)
    traced, traced_detail = run(workload, seed, 1)
    if not plain["correct"] or not traced["correct"]:
        raise RunError(f"{workload} seed {seed}: run not correct: {detail['why']}"
                       f"{traced_detail['why']}", 1)
    if detail["digest"] != traced_detail["digest"]:
        raise RunError(f"{workload} seed {seed}: traced and untraced digests differ", 1)
    row = {"digest": detail["digest"]}
    row.update({name: plain["metrics"][name]["value"] for name in UNTRACED})
    row.update({name: traced["metrics"][name]["value"] for name in TRACED})
    return row


def toolchain() -> str:
    try:
        out = subprocess.run(["c++", "--version"], capture_output=True, text=True).stdout
    except OSError:
        return "unknown"
    return out.splitlines()[0] if out else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare (the default)")
    mode.add_argument("--update", action="store_true", help="rewrite the golden file")
    args = parser.parse_args()

    golden = None
    if not args.update:
        if not GOLDEN.exists():
            print(f"e2e_counters: {GOLDEN.relative_to(ROOT)} missing; run --update",
                  file=sys.stderr)
            return 2
        golden = json.loads(GOLDEN.read_text())

    runs = {}
    diffs = []
    try:
        for workload in WORKLOADS:
            for seed in SEEDS:
                key = f"{workload}/{seed}"
                row = measure(workload, seed)
                runs[key] = row
                if golden is None:
                    print(f"{key}: {row}", flush=True)
                    continue
                want = golden["runs"].get(key)
                if want is None:
                    diffs.append(f"{key}: not in the golden file")
                    continue
                bad = [f"{name} {want.get(name)!r} -> {row.get(name)!r}"
                       for name in {**want, **row} if want.get(name) != row.get(name)]
                status = "ok" if not bad else "DIFFERS: " + "; ".join(bad)
                print(f"{key}: {status}", flush=True)
                diffs += [f"{key}: {b}" for b in bad]
    except RunError as err:
        print(f"e2e_counters: {err}", file=sys.stderr)
        return err.code

    if args.update:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps({"toolchain": toolchain(), "runs": runs}, indent=2) + "\n")
        print(f"e2e_counters: wrote {GOLDEN.relative_to(ROOT)}")
        return 0
    if diffs:
        print(f"e2e_counters: {len(diffs)} value(s) differ from "
              f"{GOLDEN.relative_to(ROOT)} (recorded with {golden.get('toolchain')}, "
              f"this host {toolchain()}):", file=sys.stderr)
        for d in diffs:
            print(f"  {d}", file=sys.stderr)
        return 1
    print("e2e_counters: all counters match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
