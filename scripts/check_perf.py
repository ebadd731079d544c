#!/usr/bin/env python3
"""Compare a bench_perf smoke run against the committed BENCH_PERF.json.

Part of the OPD project: a reproduction of "Online Phase Detection
Algorithms" (CGO 2006).

The comparison is on fast-over-reference throughput ratios, not absolute
throughput: both paths run in the same process seconds apart, so their
ratio is stable across machines and CPU frequency states, while absolute
M/s on a throttling host can swing far more than any real regression.
A case fails when its ratio drops more than the tolerance (default 25%)
below the committed baseline.

By default a case named <c> compares BM_FastDetector/<c> against
BM_Detector/<c>. A case may override any part of that pairing with
optional fields: "fast_bench" / "ref_bench" select the benchmark
function names, "bench_case" the shared capture suffix. The batch-kernel
cases use this to pin the SIMD and portable dispatch backends against
the same reference run (e.g. "batch_simd_weighted_adaptive" compares
BM_BatchSimdDetector/weighted_adaptive to BM_Detector/weighted_adaptive).
Every baseline case is required: a case whose benchmarks are missing
from the smoke run (including a skipped SIMD benchmark on a host
without AVX2) fails the check.

When a serving smoke file (opd_loadgen --json output) is given and the
baseline carries a "serving" entry, serving_vs_offline_ratio — served
elements/sec over the single-thread offline fast detector, another
machine-relative ratio — is checked the same way, with a wider default
tolerance (50%) because it folds in scheduler and loopback variance.

The shared-scan sweep is guarded too: --sweep-shared feeds a freshly
measured pruned paper sweep time in (seconds) and --sweep-shared-rss its
peak resident set (MB), each held to the same >25% regression rule
against the baseline's sweep_shared_seconds and
sweep_shared_peak_rss_mb. Pass "-" as the smoke file to run only the
sweep checks.

Usage: check_perf.py [--sweep-shared S] [--sweep-shared-rss MB]
                     <smoke.json|-> <baseline.json> [tolerance] [serving.json]
"""

import json
import sys

SERVING_TOLERANCE = 0.5


def check_sweep(baseline, key, measured, unit, tolerance):
    """Returns True when the sweep check against baseline entry `key`
    (lower is better) failed."""
    if measured is None:
        return False
    base = baseline.get(key)
    if base is None:
        print(f"perf: sweep: baseline lacks {key} "
              "(rerun scripts/bench.sh): FAILED")
        return True
    ceiling = base * (1.0 + tolerance)
    verdict = "ok" if measured <= ceiling else "REGRESSION"
    print(f"perf: sweep: {key} {measured:.1f}{unit} "
          f"(baseline {base:.1f}{unit}, ceiling {ceiling:.1f}{unit}) "
          f"{verdict}")
    return measured > ceiling


def check_serving(serving_path, baseline):
    """Returns True when the serving ratio regressed."""
    expected = baseline.get("serving")
    if expected is None:
        print("perf: serving: no baseline entry; skipping")
        return False
    smoke = json.load(open(serving_path))
    if smoke.get("failed", 0) or smoke.get("mismatches", 0):
        print(f"perf: serving: smoke run had {smoke.get('failed', 0)} failed "
              f"sessions, {smoke.get('mismatches', 0)} mismatches: FAILED")
        return True
    ratio = smoke["serving_vs_offline_ratio"]
    floor = expected["serving_vs_offline_ratio"] * (1.0 - SERVING_TOLERANCE)
    verdict = "ok" if ratio >= floor else "REGRESSION"
    print(f"perf: serving: serving/offline {ratio:.4f} "
          f"(baseline {expected['serving_vs_offline_ratio']:.4f}, "
          f"floor {floor:.4f}) {verdict}")
    return ratio < floor


def main():
    argv = sys.argv[1:]
    sweep_shared = None
    sweep_shared_rss = None
    positional = []
    i = 0
    while i < len(argv):
        if argv[i] == "--sweep-shared":
            sweep_shared = float(argv[i + 1])
            i += 2
        elif argv[i] == "--sweep-shared-rss":
            sweep_shared_rss = float(argv[i + 1])
            i += 2
        else:
            positional.append(argv[i])
            i += 1
    smoke_path, baseline_path = positional[0], positional[1]
    tolerance = float(positional[2]) if len(positional) > 2 else 0.25
    serving_path = positional[3] if len(positional) > 3 else None

    baseline_all = json.load(open(baseline_path))
    baseline = baseline_all["cases"]

    failed = False
    if smoke_path != "-":
        raw = json.load(open(smoke_path))
        rates = {}
        for bench in raw["benchmarks"]:
            if "items_per_second" not in bench:  # skipped (error_occurred)
                continue
            path, case = bench["name"].split("/", 1)
            rates.setdefault(case, {})[path] = bench["items_per_second"]

        for case, expected in sorted(baseline.items()):
            fast_bench = expected.get("fast_bench", "BM_FastDetector")
            ref_bench = expected.get("ref_bench", "BM_Detector")
            bench_case = expected.get("bench_case", case)
            pair = rates.get(bench_case, {})
            if fast_bench not in pair or ref_bench not in pair:
                print(f"perf: {case}: MISSING from smoke run "
                      f"(needs {fast_bench}/{bench_case} and "
                      f"{ref_bench}/{bench_case})")
                failed = True
                continue
            ratio = pair[fast_bench] / pair[ref_bench]
            floor = expected["ratio"] * (1.0 - tolerance)
            verdict = "ok" if ratio >= floor else "REGRESSION"
            print(f"perf: {case}: fast/ref {ratio:.2f}x "
                  f"(baseline {expected['ratio']:.2f}x, floor {floor:.2f}x) "
                  f"{verdict}")
            failed |= ratio < floor

    failed |= check_sweep(baseline_all, "sweep_shared_seconds", sweep_shared,
                          "s", tolerance)
    failed |= check_sweep(baseline_all, "sweep_shared_peak_rss_mb",
                          sweep_shared_rss, " MB", tolerance)

    if serving_path is not None:
        failed |= check_serving(serving_path, baseline_all)

    if failed:
        print("perf: regression against BENCH_PERF.json "
              "(rebaseline with scripts/bench.sh if intentional)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
