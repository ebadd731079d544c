#!/usr/bin/env bash
#===- scripts/ci.sh - Full verification pipeline ----------------------------===#
#
# Part of the OPD project: a reproduction of "Online Phase Detection
# Algorithms" (CGO 2006).
#
# Runs the complete CI matrix from a clean tree as named stages:
#
#   plain:        configure + build (warnings-as-errors) + full ctest
#   kernel-check: the shipped sweep specs certify wraparound-free at the
#                 evaluation's 62M-element trace scale
#   serve-check:  wire-protocol model checker vs the real ServeSession vs
#                 docs/SERVING.md, plus a fixed-seed model-guided fuzz run
#   tidy:         clang-tidy over src/ when it is on PATH (skips otherwise)
#   clang:        a clang++ configuration so -Wthread-safety verifies the
#                 locking annotations (skips when clang++ is absent)
#   simd-matrix:  the SIMD/portable batch-kernel matrix — the kernel
#                 differential, batch-kernel, KernelBounds, and
#                 shared-scan suites run (a) on the AVX2-enabled plain
#                 build with OPD_SIMD=off forcing the portable dispatch
#                 fallback, and (b) on a separate -DOPD_DISABLE_SIMD=ON
#                 build with the AVX2 code compiled out entirely; the
#                 default-dispatch leg is the plain stage's full ctest
#   asan-ubsan:   full ctest under Address + UndefinedBehaviorSanitizer
#   ubsan-int:    the kernel/detector/batch arithmetic suites under
#                 clang's -fsanitize=undefined,integer (gcc fallback:
#                 undefined only) — the gain/loss kernel deltas and the
#                 batch min-sum/anchor kernels must hold their
#                 no-wraparound certificates at runtime, not just in the
#                 KernelBounds abstract interpretation; the same suites
#                 repeat with OPD_SIMD=off so the portable blocks are
#                 sanitized too
#   serve-smoke:  a real opd_serve daemon under ASan/UBSan takes a few
#                 hundred opd_loadgen --verify sessions (4096-element
#                 frames, then 37-element frames under a 5000-element
#                 skip), then drains cleanly on SIGTERM
#   tsan:         ThreadSanitizer over the concurrency-exercising tests,
#                 with OPD_THREADS=4 so single-core runners still run
#                 real threads, then the serve-smoke loadgen run against
#                 a TSan opd_serve at its default shard count (shards
#                 racing accept4 on one listener, the global session
#                 count, the stop-pipe drain on SIGTERM)
#   sweep-shared: the shared-scan engine's bit-identity differential
#                 (tests/SharedScanTest.cpp) on the default and portable
#                 dispatches, then a Release pruned paper sweep: its
#                 score CSV must be byte-identical to the reference
#                 detector's (sweep_tool --stats) and, on jess and
#                 db, the unpruned sweep's; its timing and peak RSS
#                 are checked against the BENCH_PERF.json sweep
#                 entries (scripts/check_perf.py --sweep-shared
#                 --sweep-shared-rss)
#   perf:         Release perf smoke vs BENCH_PERF.json — the fast and
#                 batch-backend detector ratios within 25% and the
#                 serving ratio within 50% (scripts/check_perf.py);
#                 the skip-factor pairs are recorded, not gated, and
#                 the skip-1 fast/reference ratios are reported again
#                 from a build with branch-boundary padding
#
# All ctest configurations include the jp_lint_* / config_check_* tests,
# which lint the bundled .jp workloads and the shipped sweep specs. The
# opd_serve process handling is shared with serve_differential.sh via
# scripts/serve_common.sh. A per-stage wall-clock summary is printed on
# exit (also when a stage fails).
#
# Usage: scripts/ci.sh [--list-stages] [--stage NAME]... [build-dir-prefix]
#
#   scripts/ci.sh                      # every stage, in order
#   scripts/ci.sh --stage tsan         # just the tsan stage
#   scripts/ci.sh --stage plain --stage simd-matrix my-prefix
#
#===----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."
# shellcheck source=scripts/serve_common.sh
. scripts/serve_common.sh

ALL_STAGES=(plain kernel-check serve-check tidy clang simd-matrix
  asan-ubsan ubsan-int serve-smoke tsan sweep-shared perf)
SIMD_TESTS='BatchKernel|FastDetector|KernelBounds|SharedScan'

SELECTED=()
PREFIX=""
while [ $# -gt 0 ]; do
  case "$1" in
  --list-stages)
    printf '%s\n' "${ALL_STAGES[@]}"
    exit 0
    ;;
  --stage)
    [ $# -ge 2 ] || { echo "ci.sh: --stage needs a name" >&2; exit 2; }
    case " ${ALL_STAGES[*]} " in
    *" $2 "*) SELECTED+=("$2") ;;
    *)
      echo "ci.sh: unknown stage '$2' (see --list-stages)" >&2
      exit 2
      ;;
    esac
    shift 2
    ;;
  -*)
    echo "ci.sh: unknown option '$1'" >&2
    exit 2
    ;;
  *)
    PREFIX="$1"
    shift
    ;;
  esac
done
PREFIX="${PREFIX:-build-ci}"
[ ${#SELECTED[@]} -gt 0 ] || SELECTED=("${ALL_STAGES[@]}")

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Configures and (incrementally) builds one named tree; stages that share
# a tree (plain / kernel-check / serve-check, asan-ubsan / serve-smoke)
# get a no-op rebuild when run in one invocation.
configure_build() {
  local name="$1"
  shift
  local dir="${PREFIX}-${name}"
  echo "=== [$name] configure ($*) ==="
  cmake -B "$dir" -S . -DOPD_WERROR=ON "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$JOBS"
}

run_ctest() {
  local name="$1"
  shift
  echo "=== [$name] ctest ($*) ==="
  ctest --test-dir "${PREFIX}-${name}" --output-on-failure -j "$JOBS" "$@"
}

stage_plain() {
  configure_build plain
  run_ctest plain
}

stage_kernel_check() {
  configure_build plain
  "${PREFIX}-plain/examples/kernel_check" --preset paper --trace-len 62M
}

stage_serve_check() {
  configure_build plain
  "${PREFIX}-plain/examples/serve_check" --impl --doc docs/SERVING.md \
    --fuzz 500 --seed 7 --stats
}

stage_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "=== clang-tidy not found; skipping (config: .clang-tidy) ==="
    return 0
  fi
  configure_build plain -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  find src -name '*.cpp' -print0 |
    xargs -0 -P "$JOBS" -n 4 clang-tidy -p "${PREFIX}-plain" --quiet
}

stage_clang() {
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "=== clang++ not found; skipping -Wthread-safety configuration ==="
    return 0
  fi
  configure_build clang -DCMAKE_CXX_COMPILER=clang++
  run_ctest clang
}

stage_simd_matrix() {
  # Leg (a): AVX2 compiled in, dispatch forced onto the portable scalar
  # blocks. The differential suites must be bit-identical here exactly as
  # under the default dispatch (the plain stage's full ctest).
  configure_build plain
  echo "=== [simd-matrix] portable dispatch (OPD_SIMD=off) ==="
  OPD_SIMD=off ctest --test-dir "${PREFIX}-plain" --output-on-failure \
    -j "$JOBS" -R "$SIMD_TESTS"
  # Leg (b): AVX2 compiled out — the build the portable-only targets get.
  configure_build nosimd -DOPD_DISABLE_SIMD=ON
  run_ctest nosimd -R "$SIMD_TESTS"
}

stage_asan_ubsan() {
  configure_build asan-ubsan -DOPD_SANITIZE="address;undefined"
  run_ctest asan-ubsan
}

stage_ubsan_int() {
  # clang's integer sanitizer traps unsigned wraparound too, which the
  # gain/loss delta forms and the batch min-sum accumulators are
  # certified never to need (analysis/KernelBounds.h). gcc has no
  # -fsanitize=integer, so the fallback rides the plain undefined
  # sanitizer there.
  local tests='KernelBounds|CoreKernel|FastDetector|BatchKernel|SharedScan|KernelWindows'
  if command -v clang++ >/dev/null 2>&1; then
    configure_build ubsan-int -DCMAKE_CXX_COMPILER=clang++ \
      -DOPD_SANITIZE="undefined;integer"
  else
    echo "=== clang++ not found; running the integer leg under gcc ubsan ==="
    configure_build ubsan-int -DOPD_SANITIZE=undefined
  fi
  run_ctest ubsan-int -R "$tests"
  echo "=== [ubsan-int] portable dispatch (OPD_SIMD=off) ==="
  OPD_SIMD=off ctest --test-dir "${PREFIX}-ubsan-int" --output-on-failure \
    -j "$JOBS" -R 'BatchKernel|FastDetector|SharedScan|KernelWindows'
}

stage_serve_smoke() {
  # A real opd_serve daemon under ASan/UBSan takes a few hundred loadgen
  # sessions with --verify (every streamed transition sequence is rebuilt
  # and compared against offline runDetector), then drains cleanly on
  # SIGTERM. Any sanitizer report, session failure, equivalence mismatch,
  # or unclean shutdown fails CI. The second run sends 37-element frames
  # under a 5000-element skip, so batches straddle frames and element
  # payloads sit at odd offsets in the server's read buffer.
  configure_build asan-ubsan -DOPD_SANITIZE="address;undefined"
  local dir="${PREFIX}-asan-ubsan"
  start_opd_serve "$dir/examples/opd_serve" "$dir/serve_smoke.log"
  "$dir/examples/opd_loadgen" --port "$SERVE_PORT" \
    --sessions 64 --total 300 --workload db --scale 0.05 --verify
  "$dir/examples/opd_loadgen" --port "$SERVE_PORT" \
    --sessions 64 --total 300 --workload db --scale 0.05 --verify \
    --chunk 37 --skip 5000 --policy adaptive --model weighted \
    --analyzer average --param 0.05
  stop_opd_serve
}

stage_tsan() {
  configure_build tsan -DOPD_SANITIZE=thread
  local dir="${PREFIX}-tsan"
  OPD_THREADS=4 ctest --test-dir "$dir" --output-on-failure \
    -j "$JOBS" -R 'Parallel|Sweep|Observ|Config|Serve'
  # The gtests start one or two shards; this run covers the default
  # count. stop_opd_serve fails the stage on any TSan report, since the
  # daemon then exits nonzero.
  OPD_THREADS=4 start_opd_serve "$dir/examples/opd_serve" \
    "$dir/serve_smoke.log"
  "$dir/examples/opd_loadgen" --port "$SERVE_PORT" \
    --sessions 64 --total 300 --workload db --scale 0.05 --verify
  stop_opd_serve
}

stage_sweep_shared() {
  # The shared-scan engine ships on a bit-identity contract
  # (core/SharedScan.h): the differential suite must hold under both the
  # default and the forced-portable dispatch, its paper-sweep scores must
  # equal the reference detector's and the unpruned sweep's, and its wall
  # clock and peak memory must not regress.
  # The Release tree is shared with the perf stage.
  local dir="${PREFIX}-perf"
  echo "=== [sweep-shared] configure + build (Release) ==="
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release -DOPD_WERROR=ON
  cmake --build "$dir" -j "$JOBS" --target shared_scan_test sweep_tool
  echo "=== [sweep-shared] differential (default dispatch) ==="
  "$dir/tests/shared_scan_test"
  echo "=== [sweep-shared] differential (OPD_SIMD=off) ==="
  OPD_SIMD=off "$dir/tests/shared_scan_test"
  echo "=== [sweep-shared] pruned paper sweep ==="
  # Best of 2: the timing and the peak RSS (the child's ru_maxrss) are
  # checked against ceilings, and the minimum is robust to a run landing
  # in a host throttle window. Four workers, as scripts/bench.sh runs
  # them: the peak grows with the worker count (one engine arena each).
  # Each run's log line names the batch-kernel backend it ran on, so a
  # timing is compared with one taken on the same backend.
  local best="" best_rss="" out s rss backend
  for _ in 1 2; do
    out=$(OPD_THREADS=4 python3 scripts/time_rss.py "$dir/sweep-shared.csv" \
      "$dir/examples/sweep_tool" --preset paper --prune \
      --workloads jess --mpls 10K 2> "$dir/sweep-shared.log")
    read -r s rss <<< "$out"
    backend=$(sed -n 's/.*batch backend \([a-z0-9]*\).*/\1/p' \
      "$dir/sweep-shared.log")
    echo "pruned paper sweep: ${s} s, peak ${rss} MB, batch backend ${backend}"
    best=$(python3 -c "print(min($s, ${best:-$s}))")
    best_rss=$(python3 -c "print(min($rss, ${best_rss:-$rss}))")
  done
  # The engine must agree with the reference detector (the --stats path)
  # on every paper-preset config's score, not only on the differential
  # suite's grid.
  echo "=== [sweep-shared] paper sweep scores: shared vs reference ==="
  "$dir/examples/sweep_tool" --preset paper --prune --stats \
    --workloads jess --mpls 10K > "$dir/sweep-reference.csv" \
    2> "$dir/sweep-reference-stats.txt"
  cmp "$dir/sweep-shared.csv" "$dir/sweep-reference.csv"
  # Pruning is exact, so the unpruned sweep must write the same bytes.
  # Its plan puts every pruned-away duplicate in the cohort of its
  # representative, so this is also the paper-scale test of tied
  # parameters inside one cohort.
  echo "=== [sweep-shared] paper sweep scores: pruned vs unpruned ==="
  "$dir/examples/sweep_tool" --preset paper \
    --workloads jess --mpls 10K > "$dir/sweep-unpruned.csv"
  cmp "$dir/sweep-shared.csv" "$dir/sweep-unpruned.csv"
  # The same on a second trace shape: db's phases put the attached
  # shards (and their Slide refills) through other entries and lengths.
  echo "=== [sweep-shared] db paper sweep scores: pruned vs unpruned ==="
  "$dir/examples/sweep_tool" --preset paper --prune \
    --workloads db --mpls 10K > "$dir/sweep-db-pruned.csv"
  "$dir/examples/sweep_tool" --preset paper \
    --workloads db --mpls 10K > "$dir/sweep-db-unpruned.csv"
  cmp "$dir/sweep-db-pruned.csv" "$dir/sweep-db-unpruned.csv"
  python3 scripts/check_perf.py --sweep-shared "$best" \
    --sweep-shared-rss "$best_rss" - BENCH_PERF.json
}

stage_perf() {
  local dir="${PREFIX}-perf"
  echo "=== [perf] configure + build (Release) ==="
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release -DOPD_WERROR=ON
  cmake --build "$dir" -j "$JOBS" --target bench_perf opd_serve opd_loadgen
  # BM_FastDetectorServeBulk (the serve_bulk detector offline) and
  # BM_BatchAvx512Detector (skipped where the host lacks AVX-512) are
  # recorded in bench_smoke.json but gate nothing: check_perf.py reads
  # only the cases BENCH_PERF.json names.
  "$dir/bench/bench_perf" \
    --benchmark_filter='BM_Detector/|BM_FastDetector/|BM_BatchSimdDetector/|BM_BatchAvx512Detector/|BM_BatchPortableDetector/|BM_FastDetectorSkipFactor/|BM_DetectorSkipFactor/|BM_SharedScanGroupOfOne/|BM_FastDetectorServeBulk/' \
    --benchmark_min_time=0.5 \
    --benchmark_format=json > "$dir/bench_smoke.json"
  start_opd_serve "$dir/examples/opd_serve" "$dir/serve_smoke.log"
  "$dir/examples/opd_loadgen" --port "$SERVE_PORT" \
    --sessions 128 --total 256 --json > "$dir/serving_smoke.json"
  stop_opd_serve
  # The skip-1 BM_FastDetector figures move about 10% with branch
  # placement alone, so their fast/reference ratios are taken a second
  # time from a bench_perf whose branches are padded off 32-byte
  # boundaries and printed after the gate, as a report that gates
  # nothing: a move in one placement only is placement, not work.
  local padded="${PREFIX}-perf-padded"
  echo "=== [perf] configure + build (Release, branch-boundary padding) ==="
  cmake -B "$padded" -S . -DCMAKE_BUILD_TYPE=Release -DOPD_WERROR=ON \
    -DCMAKE_CXX_FLAGS=-Wa,-mbranches-within-32B-boundaries
  cmake --build "$padded" -j "$JOBS" --target bench_perf
  "$padded/bench/bench_perf" \
    --benchmark_filter='BM_Detector/|BM_FastDetector/' \
    --benchmark_min_time=0.5 \
    --benchmark_format=json > "$padded/bench_smoke.json"
  local gate=0
  python3 scripts/check_perf.py "$dir/bench_smoke.json" BENCH_PERF.json \
    0.25 "$dir/serving_smoke.json" || gate=$?
  python3 - "$dir/bench_smoke.json" "$padded/bench_smoke.json" <<'EOF'
import json
import sys


def ratios(path):
    rates = {}
    for bench in json.load(open(path))["benchmarks"]:
        if "items_per_second" in bench:
            name, case = bench["name"].split("/", 1)
            rates.setdefault(case, {})[name] = bench["items_per_second"]
    return {case: pair["BM_FastDetector"] / pair["BM_Detector"]
            for case, pair in rates.items()
            if "BM_FastDetector" in pair and "BM_Detector" in pair}


plain, padded = ratios(sys.argv[1]), ratios(sys.argv[2])
for case in sorted(plain):
    print(f"perf (report only): {case}: skip-1 fast/ref {plain[case]:.2f}x, "
          f"padded build {padded.get(case, float('nan')):.2f}x")
EOF
  return "$gate"
}

STAGE_TIMES=""
print_summary() {
  local status=$?
  kill_opd_serve
  if [ -n "$STAGE_TIMES" ]; then
    echo "=== stage timing ==="
    printf '%s' "$STAGE_TIMES"
  fi
  if [ "$status" -eq 0 ]; then
    echo "=== CI passed (${SELECTED[*]}) ==="
  else
    echo "=== CI FAILED (exit $status) ==="
  fi
}
trap print_summary EXIT

for stage in "${SELECTED[@]}"; do
  echo "=== stage: $stage ==="
  stage_t0=$SECONDS
  "stage_${stage//-/_}"
  STAGE_TIMES="${STAGE_TIMES}$(printf '%-12s %5ss' "$stage" \
    "$((SECONDS - stage_t0))")"$'\n'
done
