"""Capacity, then demand sensitivity sweeps of a corridor (default model1)
by `semibus sweep`, both value lists checked before either sweep runs.
Exits with the first non-zero status a sweep returns."""
from __future__ import annotations

import argparse
import sys

from semibus.cli import count_arg, main as semibus, resolve_scenario, values_arg
from semibus.experiments import SweepSpec
from semibus.model import ScenarioError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="model1")
    parser.add_argument("--out", default="results")
    parser.add_argument("--replications", type=count_arg, default=1000)
    parser.add_argument("--capacities", type=values_arg, default="15,20,25,30")
    parser.add_argument("--demands", type=values_arg, default="40,50,60,70,80,90,100")
    parser.add_argument("--workers", type=count_arg, default=1)
    args = parser.parse_args()

    sweeps = (("capacity", args.capacities), ("lambda", args.demands))
    try:
        scenario = resolve_scenario(args.scenario)
        for dimension, values in sweeps:
            SweepSpec(dimension=dimension, values=values, replications=args.replications, scenario=scenario)
    except ScenarioError as exc:
        parser.error(str(exc))

    flags = ["--scenario", args.scenario, "--replications", str(args.replications)]
    flags += ["--workers", str(args.workers), "--out", args.out]
    for dimension, values in sweeps:  # --values=: a value list may start with "-"
        if status := semibus(["sweep", "--dimension", dimension, f"--values={','.join(map(repr, values))}", *flags]):
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
