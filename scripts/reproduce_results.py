"""Run the four bundled corridors end to end and write their reports.

Produces, per scenario: the metric table, the cost-difference histogram,
the full-precision JSON, and a screening summary across all corridors.
"""
from __future__ import annotations

import argparse
import time
from pathlib import Path

from semibus.cli import BUNDLED, bundled_path, count_arg, screen_row, write_screen_ranking
from semibus.experiments import emit_report, run_scenario, sig4
from semibus.model import load_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--replications", type=count_arg, default=10_000)
    parser.add_argument("--workers", type=count_arg, default=1)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for name in BUNDLED:
        scenario = load_scenario(bundled_path(name))
        t0 = time.perf_counter()
        run = run_scenario(scenario, replications=args.replications, workers=args.workers)
        emit_report(run, out)
        d = run.delta_tc
        rows.append(screen_row(scenario))
        print(
            f"{name:<8s} delta_tc {sig4(d.median):>7s} ({sig4(d.p2_5)} - {sig4(d.p97_5)})"
            f"  [{time.perf_counter() - t0:.1f}s]"
        )

    rows.sort(key=lambda r: r["si"])
    write_screen_ranking(rows, out)
    print(f"reports in {out}/")


if __name__ == "__main__":
    main()
