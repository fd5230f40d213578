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
# After the plain build, every mode disassembles the numerics library and
# fails on any fused multiply-add (vfmadd/vfmsub/vfnmadd/vfnmsub): the
# kernels give the same bits on every ISA path (src/numerics/isa.hpp) only
# while no multiply and add are fused. It also fails when a hot AVX2 body
# (avx2_path<...matmul_rows...>, <...matmul_tn_rows...>, <...partial_rows...>
# or <...streamed_bwd_rows...>) has no ymm instruction, or carries a
# relocation to libm's exp or expf: the library is built at -O3 in every
# build type so that tests and benches run the same vector code as a
# Release build, and attention exponentiates with the library's own
# exp_f32 (src/numerics/exp.hpp) in vector blocks, not one libm call per
# (query, key). And it
# fails when a hot AVX2 body (avx2_path<...matmul_rows...>,
# <...partial_rows...> or <...streamed_bwd_rows...>) starts off a 64-byte
# boundary in a linked binary (nm -C): slim_numerics is built with
# -falign-functions=64, since where the link happens to place those bodies
# moved a training step's time by ~4% with unchanged kernel code.
#
# It also fails when the runtime library (libslim_runtime.a) carries a
# relocation to libm's exp or expf. The runtime only routes tensors between
# shards: the vocabulary-parallel loss is src/numerics' three phases
# (ce_shard_stats, ce_fold, ce_shard_grad), which exponentiate with
# exp_f32, so a libm exp in the runtime would be a second copy of that
# math with its own rounding.
#
# Each sanitizer preset (-DSLIMPIPE_SANITIZE=address|undefined|thread, see
# the top-level CMakeLists) gets its own build tree under build-<name>/ and
# runs the ctest label subsets most likely to surface that bug class:
#
#   address    faults, mem, ir, sched, dist, telemetry, elastic, numerics,
#              obs
#                                  (lifetime/overflow in the fault machinery,
#                                   arena tracking, the schedule IR and its
#                                   verifier (ir: test_ir + test_analysis),
#                                   the scheme generators, graph builder,
#                                   simulator and planner (sched: test_sched,
#                                   test_zbv, test_slimpipe, test_exchange,
#                                   test_integration, test_extensions,
#                                   test_fuzz, test_parallel, test_pareto),
#                                   the multi-process socket runtime, the
#                                   flight-recorder ring and the heartbeat
#                                   that carries it, variable-length slice
#                                   layouts, the numerics kernels' raw-pointer
#                                   loops, and obs: the JSON parser that
#                                   reads report and snapshot files from
#                                   outside the program, traces and metrics)
#   undefined  faults, mem, ir, sched, dist, telemetry, elastic, numerics,
#              obs
#                                  (integer/shift UB in the same layers)
#   thread     faults, threads, dist, telemetry, elastic
#                                  (faults: the threaded runtime's own
#                                   tests, test_runtime and test_fault, plus
#                                   the stage machine and the stage driver
#                                   (test_stage_driver); threads: the kernel
#                                   pool; dist: the supervisor forks
#                                   single-threaded workers from the
#                                   pool-owning parent — exactly the
#                                   fork/lock interaction TSan should watch;
#                                   telemetry: the overhead gate runs both
#                                   substrates)
#
# After its label run the thread preset repeats the runtime's watchdog-hang
# tests (RuntimeFaultTest.HangTriggersWatchdogWithBlockedTable and
# RuntimeFaultTest.HangWithRecoveryReplays), the cross-process
# observability tests (DistObservabilityTest) and the tests where several
# threads write one obs::Recorder (RecorderTest and the traced threaded run
# in ConsistencyTest, both in test_obs, label obs) ten times each, in
# parallel: under TSan a slow first forward can trip the watchdog tests'
# 200 ms starvation timeout; the hang replay wakes a parked stage through
# the shutdown broadcast, then runs a second attempt on fresh threads and
# machines, an interleaving no other test makes; the observability tests
# pin the one run clock that forked workers share with the supervisor; and
# rt::drive_stage writes the threaded runtime's recorder from every stage
# thread.
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

check_no_fma() {
  echo "== numerics kernels: no fused multiply-add, vectorized AVX2 bodies =="
  local listing counts
  listing="$(objdump -dr --demangle build/src/numerics/libslim_numerics.a)"
  if grep -qE 'vf(n)?m(add|sub)' <<<"$listing"; then
    echo "check.sh: libslim_numerics.a contains fused multiply-adds:" >&2
    grep -m 20 -E 'vf(n)?m(add|sub)' <<<"$listing" >&2
    exit 1
  fi
  # Per hot AVX2 body: "<ymm instructions> <libm exp relocations> <body>".
  counts="$(awk '/^[0-9a-f]+ <.*>:$/ {
                   fn = $0 ~ /avx2_path<[^,]*(matmul_rows|matmul_tn_rows|partial_rows|streamed_bwd_rows),/ ? $0 : ""
                   if (fn != "") { ymm[fn] = 0; libm[fn] = 0 }
                 }
                 fn != "" && /%ymm/ { ymm[fn]++ }
                 fn != "" && /R_X86_64_[A-Z0-9_]+[[:space:]]+expf?([-+@]|$)/ {
                   libm[fn]++
                 }
                 END { for (f in ymm) print ymm[f], libm[f], f }' <<<"$listing")"
  if [[ "$(grep -c . <<<"$counts")" -ne 4 ]] ||
     grep -qE '^(0 [0-9]+|[0-9]+ [1-9][0-9]*) ' <<<"$counts"; then
    echo "check.sh: expected 4 hot AVX2 bodies, each with ymm instructions" \
         "and no libm exp call (ymm count, exp relocations, body):" >&2
    echo "${counts:-(no avx2_path body found)}" >&2
    exit 1
  fi
}

check_runtime_no_exp() {
  echo "== training runtime: no exponentials of its own =="
  local calls
  calls="$(objdump -dr --demangle build/src/runtime/libslim_runtime.a |
    grep -E 'R_X86_64_[A-Z0-9_]+[[:space:]]+expf?([-+@]|$)' || true)"
  if [[ -n "$calls" ]]; then
    echo "check.sh: libslim_runtime.a calls libm's exp or expf" \
         "(the loss math belongs in src/numerics):" >&2
    echo "$calls" >&2
    exit 1
  fi
}

check_kernel_alignment() {
  echo "== numerics kernels: hot AVX2 bodies on 64-byte boundaries =="
  local symbols addr rest
  symbols="$(nm -C build/bench/bench_numerics_kernels |
    grep -E 'avx2_path<[^,]*(matmul_rows|partial_rows|streamed_bwd_rows),' ||
    true)"
  if [[ "$(grep -c . <<<"$symbols")" -ne 3 ]]; then
    echo "check.sh: expected 3 hot AVX2 kernel bodies, found:" >&2
    echo "${symbols:-(none)}" >&2
    exit 1
  fi
  while read -r addr rest; do
    if (( 16#$addr % 64 != 0 )); then
      echo "check.sh: kernel body off a 64-byte boundary: $addr $rest" >&2
      exit 1
    fi
  done <<<"$symbols"
}

if [[ "$STRESS" -eq 1 ]]; then
  echo "== plain build + full test suite, 20 runs in a row =="
  build_tree build
  check_no_fma
  check_runtime_no_exp
  check_kernel_alignment
  ctest --test-dir build --output-on-failure -j "$JOBS" \
    --repeat until-fail:20
  echo "== perfbench smoke test =="
  python3 perfbench/smoke_test.py
  echo "check.sh: stress passed"
  exit 0
fi

echo "== plain build + full test suite =="
build_tree build -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
check_no_fma
check_runtime_no_exp
check_kernel_alignment
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
      labels="faults|mem|ir|sched|dist|telemetry|elastic|numerics|obs"
    fi
    echo "== ${san} sanitizer tests (-L '${labels}') =="
    ctest --test-dir "build-${san}" --output-on-failure -j "$JOBS" \
      -L "$labels"
    if [[ "$san" == "thread" ]]; then
      repeats="HangTriggersWatchdogWithBlockedTable|HangWithRecoveryReplays"
      repeats+="|DistObservabilityTest"
      repeats+="|^RecorderTest\.|^ConsistencyTest\."
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
