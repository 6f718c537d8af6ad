#!/usr/bin/env bash
# Fast correctness gate: the tier-1 test suite, then an ASan+UBSan build
# exercising the churn/fault-injection paths (the tests most likely to
# hide lifetime bugs: crash-triggered flow aborts, failover callbacks,
# reentrant batch teardown).
#
# scripts/run_all.sh remains the full bar (benches + regression diff);
# this script is the quick pre-push check.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"
ctest --test-dir build -j "$(nproc)" --timeout 180 --output-on-failure
# Parametrized test names must be build-stable: no raw parameter bytes.
if ctest --test-dir build -N | grep 'byte object'; then
  echo "check.sh: parametrized test names print raw parameter bytes" >&2
  exit 1
fi

cmake -B build-asan -S . -DPEERLAB_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j "$(nproc)" \
  --target test_net test_overlay test_adversary test_econ test_property test_flow_differential \
  test_selection_differential bench_churn bench_adversarial bench_economic
build-asan/tests/test_net \
  --gtest_filter='FaultPlan.*:FaultInjector.*:Network.*:FlowScheduler.*'
build-asan/tests/test_overlay --gtest_filter='Failover.*:Distribution.*'
# Adversarial actuation paths sanitized: scripted refusals, flapper
# aborts and doctored heartbeats all tear down transfer state from
# inside callbacks, exactly where use-after-frees would hide.
build-asan/tests/test_adversary
# Econ engine + broker econ path sanitized: admission re-ranks the
# model's scratch ranking in place and the assignment hints prune
# lazily, both on the petition hot path.
build-asan/tests/test_econ
# The whole property-labelled tier runs under the sanitizers: the
# randomized differential fuzz is where lifetime bugs in the
# incremental re-levelling (stale slots, reentrant aborts) would hide,
# the selection-equivalence fuzz drives the candidate index's lazy
# tree/heap maintenance through churn and adversarial stats deltas
# (stale slot pointers and heap stamps are exactly ASan's prey), the
# adversarial-distribution property drives leech/flapper/churn mixes
# through the failover machinery with defenses off and on, and the
# econ property suite pins the zero-perturbation contract (engine off
# or unconstrained == pristine, byte for byte).
ctest --test-dir build-asan -L property -j "$(nproc)" --timeout 600 --output-on-failure
# A base seed whose scenarios once drew no petition at all.
PEERLAB_TEST_SEED=99999 ctest --test-dir build-asan -L property -R SelectionIndexEquivalence \
  -j "$(nproc)" --timeout 600 --output-on-failure
build-asan/bench/bench_churn --reps 1
build-asan/bench/bench_adversarial --reps 1
build-asan/bench/bench_economic --reps 1

echo "peerlab: check.sh passed"
