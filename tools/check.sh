#!/usr/bin/env bash
# Repo-wide check driver: sanitizer builds, labeled test subsets, clang-tidy.
#
#   tools/check.sh              # plain + address/undefined/thread sanitizers
#   tools/check.sh --fast       # plain build + full test suite only
#   tools/check.sh stress       # plain build, full suite 20 times in a row
#   JOBS=8 tools/check.sh       # override build/test parallelism
#
# The stress mode (ctest --repeat until-fail:20) is the flakiness gate:
# tier-1 must stay green on every run, idle or next to a CPU hog.
#
# Each sanitizer preset (-DSLIMPIPE_SANITIZE=address|undefined|thread, see
# the top-level CMakeLists) gets its own build tree under build-<name>/ and
# runs the ctest label subsets most likely to surface that bug class:
#
#   address    faults, mem, ir, dist, telemetry, elastic, numerics
#                                  (lifetime/overflow in the fault machinery,
#                                   arena tracking, the schedule IR, the
#                                   multi-process socket runtime, the
#                                   flight-recorder/telemetry ring + wire
#                                   paths, variable-length slice layouts and
#                                   the numerics kernels' raw-pointer loops)
#   undefined  faults, mem, ir, dist, telemetry, elastic, numerics
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
  echo "check.sh: stress passed"
  exit 0
fi

echo "== plain build + full test suite =="
build_tree build -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "$FAST" -eq 0 ]]; then
  for san in address undefined thread; do
    echo "== ${san} sanitizer build =="
    build_tree "build-${san}" -DSLIMPIPE_SANITIZE="${san}"
    if [[ "$san" == "thread" ]]; then
      labels="faults|threads|dist|telemetry|elastic"
    else
      labels="faults|mem|ir|dist|telemetry|elastic|numerics"
    fi
    echo "== ${san} sanitizer tests (-L '${labels}') =="
    ctest --test-dir "build-${san}" --output-on-failure -j "$JOBS" \
      -L "$labels"
  done
fi

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy (src/ir, src/analysis) =="
  clang-tidy -p build src/ir/*.cpp src/analysis/*.cpp
else
  echo "warning: clang-tidy not installed; skipping the tidy pass" >&2
fi

echo "check.sh: all requested checks passed"
