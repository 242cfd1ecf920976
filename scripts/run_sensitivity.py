"""Capacity and demand sensitivity sweeps for a corridor (default model1)."""
from __future__ import annotations

import argparse
from pathlib import Path

from semibus.cli import bundled_path, count_arg, resolve_scenario
from semibus.experiments import SweepSpec, emit_sweep, sig4, sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="model1")
    parser.add_argument("--out", default="results")
    parser.add_argument("--replications", type=count_arg, default=1000)
    parser.add_argument("--capacities", default="15,20,25,30")
    parser.add_argument("--demands", default="40,50,60,70,80,90,100")
    parser.add_argument("--workers", type=count_arg, default=1)
    args = parser.parse_args()

    scenario = resolve_scenario(args.scenario)
    out = Path(args.out)

    for dimension, raw in (("capacity", args.capacities), ("lambda", args.demands)):
        values = tuple(float(v) for v in raw.split(","))
        spec = SweepSpec(dimension=dimension, values=values, replications=args.replications, scenario=scenario)
        result = sweep(spec, workers=args.workers)
        path = emit_sweep(result, scenario.name, out)
        print(f"{dimension} sweep -> {path}")
        for row in result.rows:
            print(f"  {sig4(row.value):>6s}  delta_tc {sig4(row.delta_tc_median):>8s}")


if __name__ == "__main__":
    main()
