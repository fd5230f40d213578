#!/usr/bin/env bash
# Repo-wide check driver: sanitizer builds, labeled test subsets, clang-tidy.
#
#   tools/check.sh              # plain + perfbench smoke + sanitizers
#   tools/check.sh --fast       # plain build + full test suite only
#   tools/check.sh stress       # plain build, full suite 20 times in a row,
#                               # then the perfbench smoke test
#   JOBS=8 tools/check.sh       # override build/test parallelism
#
# The stress mode (ctest --repeat until-fail:20) is the flakiness gate:
# tier-1 must stay green on every run, idle or next to a CPU hog.
#
# The perfbench smoke test builds the benchmark (~45 s cold) and runs every
# workload at tiny shapes, checking Eq. 1's exact peak on both runtimes.
#
# Each sanitizer preset (-DSLIMPIPE_SANITIZE=address|undefined|thread, see
# the top-level CMakeLists) gets its own build tree under build-<name>/ and
# runs the ctest label subsets most likely to surface that bug class:
#
#   address    faults, mem, ir, sched, dist, telemetry, elastic, numerics
#                                  (lifetime/overflow in the fault machinery,
#                                   arena tracking, the schedule IR and its
#                                   verifier (ir: test_ir + test_analysis),
#                                   the scheme generators, graph builder,
#                                   simulator and planner (sched: test_sched,
#                                   test_zbv, test_slimpipe, test_exchange,
#                                   test_integration, test_extensions,
#                                   test_fuzz, test_parallel, test_pareto),
#                                   the multi-process socket runtime, the
#                                   flight-recorder/telemetry ring + wire
#                                   paths, variable-length slice layouts and
#                                   the numerics kernels' raw-pointer loops)
#   undefined  faults, mem, ir, sched, dist, telemetry, elastic, numerics
#                                  (integer/shift UB in the same layers)
#   thread     faults, threads, dist, telemetry, elastic
#                                  (faults: the threaded runtime's own
#                                   tests, test_runtime and test_fault, plus
#                                   the stage machine; threads: the kernel
#                                   pool; dist: the supervisor forks
#                                   single-threaded workers from the
#                                   pool-owning parent — exactly the
#                                   fork/lock interaction TSan should watch;
#                                   telemetry: the overhead gate runs both
#                                   substrates)
#
# After its label run the thread preset repeats the runtime's watchdog-hang
# test (RuntimeFaultTest.HangTriggersWatchdogWithBlockedTable) and the
# cross-process observability tests (DistObservabilityTest) ten times each,
# in parallel: under TSan a slow first forward can trip the watchdog test's
# 200 ms starvation timeout, and the observability tests pin the one run
# clock that forked workers share with the supervisor.
#
# clang-tidy, when installed, runs over src/ir and src/analysis with the
# plain tree's compile database; when absent the pass is skipped with a
# warning (the container may not ship it).

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
FAST=0
STRESS=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
elif [[ "${1:-}" == "stress" ]]; then
  STRESS=1
elif [[ -n "${1:-}" ]]; then
  echo "usage: tools/check.sh [--fast | stress]" >&2
  exit 2
fi

build_tree() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  cmake --build "$dir" -j "$JOBS"
}

if [[ "$STRESS" -eq 1 ]]; then
  echo "== plain build + full test suite, 20 runs in a row =="
  build_tree build
  ctest --test-dir build --output-on-failure -j "$JOBS" \
    --repeat until-fail:20
  echo "== perfbench smoke test =="
  python3 perfbench/smoke_test.py
  echo "check.sh: stress passed"
  exit 0
fi

echo "== plain build + full test suite =="
build_tree build -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "$FAST" -eq 0 ]]; then
  echo "== perfbench smoke test =="
  python3 perfbench/smoke_test.py
  for san in address undefined thread; do
    echo "== ${san} sanitizer build =="
    build_tree "build-${san}" -DSLIMPIPE_SANITIZE="${san}"
    if [[ "$san" == "thread" ]]; then
      labels="faults|threads|dist|telemetry|elastic"
    else
      labels="faults|mem|ir|sched|dist|telemetry|elastic|numerics"
    fi
    echo "== ${san} sanitizer tests (-L '${labels}') =="
    ctest --test-dir "build-${san}" --output-on-failure -j "$JOBS" \
      -L "$labels"
    if [[ "$san" == "thread" ]]; then
      repeats="HangTriggersWatchdogWithBlockedTable|DistObservabilityTest"
      echo "== ${san} sanitizer repeats (-R '${repeats}', 10 runs) =="
      ctest --test-dir "build-${san}" --output-on-failure -j "$JOBS" \
        -R "$repeats" --repeat until-fail:10
    fi
  done
fi

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy (src/ir, src/analysis) =="
  clang-tidy -p build src/ir/*.cpp src/analysis/*.cpp
else
  echo "warning: clang-tidy not installed; skipping the tidy pass" >&2
fi

echo "check.sh: all requested checks passed"
