"""Run the four bundled corridors end to end and write their reports.

Runs `semibus simulate` on each bundled corridor (the metric table, the
cost-difference histogram and the full-precision JSON), printing its wall
time, then `semibus screen` across all of them (screen_ranking.csv).
Exits with the first non-zero status a verb returns.
"""
from __future__ import annotations

import argparse
import sys
import time

from semibus.cli import BUNDLED, count_arg, main as semibus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--replications", type=count_arg, default=10_000)
    parser.add_argument("--workers", type=count_arg, default=1)
    args = parser.parse_args()

    flags = ["--out", args.out, "--replications", str(args.replications), "--workers", str(args.workers)]
    for name in BUNDLED:
        t0 = time.perf_counter()
        if status := semibus(["simulate", "--scenario", name, *flags]):
            return status
        print(f"{name} wall time {time.perf_counter() - t0:.1f}s")
    return semibus(["screen", "--scenario", *BUNDLED, "--out", args.out])


if __name__ == "__main__":
    sys.exit(main())
