#!/usr/bin/env bash
#===- scripts/bench.sh - Performance baseline capture -----------------------===#
#
# Part of the OPD project: a reproduction of "Online Phase Detection
# Algorithms" (CGO 2006).
#
# Builds the Release tree, runs the detector benchmarks, times the
# pruned paper sweep (median of 3 runs), and assembles BENCH_PERF.json
# at the repo root:
# per-element throughput for the reference and fast detector paths,
# their ratios, and the sweep wall time and peak RSS. The committed
# BENCH_PERF.json is the baseline scripts/ci.sh checks regressions
# against (on ratios, which survive machine-speed differences; absolute
# M/s numbers are recorded for context only).
#
# Usage: scripts/bench.sh [--skip-sweep] [build-dir]
#
#===----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."
# shellcheck source=scripts/serve_common.sh
. scripts/serve_common.sh

SKIP_SWEEP=0
if [ "${1:-}" = "--skip-sweep" ]; then
  SKIP_SWEEP=1; shift
fi
DIR="${1:-build-perf}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "=== [bench] configure + build (Release) ==="
cmake -B "$DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$DIR" -j "$JOBS"

echo "=== [bench] detector benchmarks ==="
RAW="$DIR/bench_perf_raw.json"
# 3 repetitions with the median aggregate recorded, randomly
# interleaved: bench hosts throttle in multi-minute windows, and three
# back-to-back repetitions (or a single measurement) all land inside
# the same window, writing a phantom regression into the baseline.
# Interleaving spreads each benchmark's repetitions across the whole
# run so its median samples different thermal states.
"$DIR/bench/bench_perf" \
  --benchmark_filter='BM_Detector/|BM_FastDetector/|BM_BatchSimdDetector/|BM_BatchPortableDetector/' \
  --benchmark_min_time=2 \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only \
  --benchmark_enable_random_interleaving=true \
  --benchmark_format=json > "$RAW"

# Times one pruned paper sweep run on four workers and prints
# "<seconds> <peak RSS MB>" (the peak grows with the worker count, one
# engine arena each, so scripts/ci.sh checks it on four too). Like every
# other entry, each recorded value is the median of 3 runs: a single
# sample is hostage to whatever else the machine was doing that minute.
time_sweep() {
  OPD_THREADS=4 python3 scripts/time_rss.py /dev/null \
    "$DIR/examples/sweep_tool" --preset paper --prune \
    --workloads jess --mpls 10K
}

median_of_3() {
  python3 -c "import sys; print(round(sorted(float(a) for a in sys.argv[1:])[1], 1))" "$@"
}

SWEEP_SHARED_SECONDS=null
SWEEP_SHARED_PEAK_RSS_MB=null
if [ "$SKIP_SWEEP" = 0 ]; then
  echo "=== [bench] pruned paper sweep (jess, MPL 10K, median of 3) ==="
  read -r S1 R1 <<< "$(time_sweep)"
  read -r S2 R2 <<< "$(time_sweep)"
  read -r S3 R3 <<< "$(time_sweep)"
  SWEEP_SHARED_SECONDS=$(median_of_3 "$S1" "$S2" "$S3")
  SWEEP_SHARED_PEAK_RSS_MB=$(median_of_3 "$R1" "$R2" "$R3")
fi

# Serving throughput: a Release opd_serve takes a loadgen fleet and the
# ratio of served elements/sec over the single-thread offline fast
# detector goes into the baseline (machine-relative, like the detector
# ratios above).
echo "=== [bench] serving throughput (opd_serve + opd_loadgen) ==="
SERVE_JSON="$DIR/bench_serving.json"
start_opd_serve "$DIR/examples/opd_serve" "$DIR/bench_serve.log"
"$DIR/examples/opd_loadgen" --port "$SERVE_PORT" \
  --sessions 128 --total 512 --json > "$SERVE_JSON"
stop_opd_serve

python3 - "$RAW" "$SERVE_JSON" "$SWEEP_SHARED_SECONDS" \
  "$SWEEP_SHARED_PEAK_RSS_MB" <<'EOF'
import json, sys

raw = json.load(open(sys.argv[1]))
serving = json.load(open(sys.argv[2]))
sweep_shared = None if sys.argv[3] == "null" else float(sys.argv[3])
sweep_shared_rss = None if sys.argv[4] == "null" else float(sys.argv[4])

rates = {}
for b in raw["benchmarks"]:
    if "items_per_second" not in b:  # skipped (e.g. SIMD without AVX2)
        continue
    if b.get("aggregate_name", "median") != "median":
        continue  # keep the median of the 3 repetitions
    path, case = b.get("run_name", b["name"]).split("/", 1)
    rates.setdefault(case, {})[path] = round(
        b["items_per_second"] / 1e6, 2)

cases = {}
for case, r in sorted(rates.items()):
    ref, fast = r["BM_Detector"], r["BM_FastDetector"]
    cases[case] = {
        "reference_mps": ref,
        "fast_mps": fast,
        "ratio": round(fast / ref, 2),
    }
    # Pinned batch-backend cases (check_perf.py resolves the extra
    # fields back to the benchmark names): SIMD vs portable dispatch
    # over the same reference run.
    for prefix, bench in (("batch_simd", "BM_BatchSimdDetector"),
                          ("batch_portable", "BM_BatchPortableDetector")):
        if bench not in r:
            continue
        cases[f"{prefix}_{case}"] = {
            "fast_bench": bench,
            "bench_case": case,
            "reference_mps": ref,
            "fast_mps": r[bench],
            "ratio": round(r[bench] / ref, 2),
        }

out = {
    "description": "Detector per-element throughput (M elements/s) on "
                   "jess scale 0.25 MPL 10K, CW=TW=5000, threshold 0.6, "
                   "skip 1; every entry (throughput and sweep seconds) "
                   "is a median of 3 runs; batch_* cases pin the "
                   "BatchKernel dispatch backend (see "
                   "scripts/check_perf.py); see docs/PERFORMANCE.md",
    "cases": cases,
    "sweep_shared_seconds": sweep_shared,
    "sweep_shared_peak_rss_mb": sweep_shared_rss,
    "serving": {
        "sessions": serving["sessions"],
        "total_sessions": serving["total_sessions"],
        "served_eps": serving["eps"],
        "offline_eps": serving["offline_eps"],
        "serving_vs_offline_ratio": serving["serving_vs_offline_ratio"],
        "batch_us_p99": serving["batch_us"]["p99"],
        "session_ms_p99": serving["session_ms"]["p99"],
    },
}
json.dump(out, open("BENCH_PERF.json", "w"), indent=2)
print(open("BENCH_PERF.json").read())
EOF

echo "=== [bench] wrote BENCH_PERF.json ==="
