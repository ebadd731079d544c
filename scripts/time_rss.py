#!/usr/bin/env python3
"""Run a command and print its wall-clock seconds and peak RSS.

Part of the OPD project: a reproduction of "Online Phase Detection
Algorithms" (CGO 2006).

The command's stdout goes to <stdout-file> and its stderr passes
through. When it succeeds, one line "<seconds> <peak_rss_mb>" is
printed: the wall time of the run and the child's peak resident set
(ru_maxrss, KiB on Linux, divided by 1024). scripts/ci.sh and
scripts/bench.sh measure the pruned paper sweep with it.

Usage: time_rss.py <stdout-file> <command> [args...]
"""

import resource
import subprocess
import sys
import time


def main():
    if len(sys.argv) < 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    with open(sys.argv[1], "w") as out:
        start = time.monotonic()
        status = subprocess.call(sys.argv[2:], stdout=out)
        seconds = time.monotonic() - start
    if status != 0:
        return status
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"{seconds:.3f} {peak_kib / 1024.0:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
