"""Capacity and demand sensitivity sweeps for a corridor (default model1)."""
from __future__ import annotations

import argparse
from pathlib import Path

from semibus.cli import count_arg, resolve_scenario, values_arg
from semibus.experiments import SweepSpec, emit_sweep, sig4, sweep
from semibus.model import ScenarioError


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="model1")
    parser.add_argument("--out", default="results")
    parser.add_argument("--replications", type=count_arg, default=1000)
    parser.add_argument("--capacities", type=values_arg, default="15,20,25,30")
    parser.add_argument("--demands", type=values_arg, default="40,50,60,70,80,90,100")
    parser.add_argument("--workers", type=count_arg, default=1)
    args = parser.parse_args()

    try:  # every value is checked before either sweep runs
        scenario = resolve_scenario(args.scenario)
        specs = [
            SweepSpec(dimension=dimension, values=values, replications=args.replications, scenario=scenario)
            for dimension, values in (("capacity", args.capacities), ("lambda", args.demands))
        ]
    except ScenarioError as exc:
        parser.error(str(exc))
    out = Path(args.out)

    for spec in specs:
        result = sweep(spec, workers=args.workers)
        path = emit_sweep(result, scenario.name, out)
        print(f"{spec.dimension} sweep -> {path}")
        for value, run in zip(result.values, result.runs):
            print(f"  {sig4(value):>6s}  delta_tc {sig4(run.delta_tc.median):>8s}")


if __name__ == "__main__":
    main()
