"""Command-line front end.

Verbs:
    analytic  closed-form screening report for one scenario
    screen    rank scenarios by selection indicator (ascending)
    simulate  Monte Carlo run + report files
    sweep     capacity or demand sensitivity sweep
    ingest    build a scenario file from a stop-boardings CSV

Scenario arguments accept a file path or one of the bundled names:
model1, model2, cta126, cta84.  All randomness is seeded (default 1729),
so identical command lines produce byte-identical outputs.

Exit codes: 0 success, 1 usage or validation error, 2 runtime error.
A scenario, or a value that overrides or builds one, that fails
validation (ScenarioError) exits 1.  Every other ValueError or OSError
exits 2; that includes each boardings row ingest.parse_boardings
refuses (a missing or extra field, a non-numeric or non-finite number)
and a header that names a column twice.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from . import analytic, experiments, ingest
from .experiments import sig4
from .model import Scenario, ScenarioError, load_scenario, require_valid, save_scenario, scenario_problems
from .simulator import sample_demand, write_trace

BUNDLED = ("model1", "model2", "cta126", "cta84")


def bundled_path(name: str) -> Path:
    return Path(str(resources.files("semibus").joinpath("data", f"{name}.json")))


def resolve_scenario(arg: str) -> Scenario:
    path = Path(arg)
    if not path.exists() and arg in BUNDLED:
        path = bundled_path(arg)
    if not path.exists():
        raise ScenarioError(f"scenario not found: {arg!r} (bundled: {', '.join(BUNDLED)})")
    scenario = load_scenario(path)
    for warning in (v for v in scenario_problems(scenario) if v.severity == "warning"):
        print(f"warning: {warning}", file=sys.stderr)
    return scenario


def screen_row(scenario: Scenario) -> dict:
    """Screening figures of one scenario: dispersion, mean access, SI and demand bound."""
    md = analytic.screening_dispersion(scenario.grid)
    mean_access = analytic.screening_mean_access(scenario.service)
    si = analytic.selection_indicator(scenario.cost, scenario.service, md, mean_access)
    bound = analytic.demand_upper_bound(scenario.cost, scenario.service, md, mean_access)
    return {
        "scenario": scenario.name,
        "md_km": md,
        "mean_access_min": 60.0 * mean_access,
        "si": si,
        "demand_bound_per_hour": bound,
    }


def cmd_analytic(args) -> int:
    scenario = resolve_scenario(args.scenario)
    if args.v_h is not None:
        scenario = require_valid(replace(scenario, service=replace(scenario.service, v_h=args.v_h)))
    svc = scenario.service
    row = screen_row(scenario)
    md, mean_access = row["md_km"], analytic.screening_mean_access(svc)
    n_p = svc.n_parallel if svc.n_parallel > 1 else 2
    par = analytic.parallel_metrics(scenario.cost, svc, md, mean_access, n_p)

    print(f"scenario            {scenario.name}")
    print(f"dispersion MD       {sig4(row['md_km'])} km")
    print(f"mean access         {sig4(row['mean_access_min'])} min")
    print(f"SI                  {sig4(row['si'])}  ({'favorable' if row['si'] < 1 else 'unfavorable'})")
    print(f"demand bound        {sig4(row['demand_bound_per_hour'])} /hour")
    print(f"SI_p (n_p={n_p})        {sig4(par.si)}")
    print(f"parallel bound      {sig4(par.demand_bound)} /hour")

    report = dict(row, si_p=par.si, parallel_bound=par.demand_bound, n_p=n_p)
    if svc.v_h is not None and svc.demand_rate > 0:
        plan = analytic.zonal_plan(scenario.cost, scenario.grid, svc, md, args.n_max)
        print(f"zones n_o           {plan.n_opt} (continuous {sig4(plan.n_continuous)})")
        table = [
            {"n": n, "wait": r.wait, "ride": r.ride, "operator": r.operator, "total": r.total}
            for n, r in enumerate(plan.table, start=1)
        ]
        print("n  zone_headway_min  wait  ride  operator  total  ($/h)")
        for r in table:
            cells = [r["n"] * svc.headway * 60] + [r[k] for k in ("wait", "ride", "operator", "total")]
            print(f"{r['n']}  " + "  ".join(map(sig4, cells)))
        report["zonal"] = {"n_opt": plan.n_opt, "n_continuous": plan.n_continuous, "table": table}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{scenario.name}_analytic.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_screen(args) -> int:
    rows = [screen_row(resolve_scenario(s)) for s in args.scenario]
    rows.sort(key=lambda r: r["si"])
    print("rank  scenario        SI      MD_km   bound/h")
    for i, row in enumerate(rows, start=1):
        print(
            f"{i:<5d} {row['scenario']:<15s} {sig4(row['si']):<7s} {sig4(row['md_km']):<7s}"
            f" {sig4(row['demand_bound_per_hour'])}"
        )
    if args.out:  # screen_ranking.csv: the rows in rank order, at full precision
        keys = ("si", "md_km", "mean_access_min", "demand_bound_per_hour")
        lines = [[str(i), row["scenario"], *(repr(row[k]) for k in keys)] for i, row in enumerate(rows, start=1)]
        experiments.write_csv(Path(args.out) / "screen_ranking.csv", [["rank", "scenario", *keys], *lines])
    return 0


def cmd_simulate(args) -> int:
    scenario = resolve_scenario(args.scenario)
    Path(args.out).mkdir(parents=True, exist_ok=True)  # an unusable --out fails before any replication
    run = experiments.run_scenario(
        scenario,
        replications=args.replications,
        seed=args.seed,
        workers=args.workers,
    )
    paths = experiments.emit_report(run, args.out, fmt=args.format)
    for mode in run.modes:
        stats = run.stats_for(mode)
        wait = stats.metrics["avg_wait_min"]
        ivtt = stats.metrics["avg_ivtt_min"]
        tc = stats.metrics["generalized_cost"]
        print(
            f"{mode:<6s} wait {sig4(wait.median)} min  ivtt {sig4(ivtt.median)} min"
            f"  cost {sig4(tc.median)} ({sig4(tc.p2_5)} - {sig4(tc.p97_5)})"
        )
    d = run.delta_tc
    print(f"delta_tc {sig4(d.median)} ({sig4(d.p2_5)} - {sig4(d.p97_5)})")
    if args.trace:
        demand = sample_demand(scenario.grid, scenario.service, experiments.replication_rng(run.seed, 0))
        paths.append(Path(args.out) / f"{scenario.name}_trace.csv")
        write_trace(scenario, demand, paths[-1])
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_sweep(args) -> int:
    scenario = resolve_scenario(args.scenario)
    spec = experiments.SweepSpec(
        dimension=args.dimension,
        values=args.values,
        replications=args.replications,
        scenario=scenario,
    )
    Path(args.out).mkdir(parents=True, exist_ok=True)
    result = experiments.sweep(spec, seed=args.seed, workers=args.workers)
    path = experiments.emit_sweep(result, scenario.name, args.out)
    print(f"{args.dimension:<9s} delta_tc_median")
    for value, run in zip(result.values, result.runs):
        print(f"{sig4(value):<9s} {sig4(run.delta_tc.median)}")
    print(f"wrote {path}")
    return 0


def cmd_ingest(args) -> int:
    template = resolve_scenario(args.template)
    records = ingest.parse_boardings(args.data, args.route_id)
    scenario = ingest.build_route_model(
        records,
        template,
        default_catchment_km=args.default_catchment_km,
        name=args.name,
    )
    save_scenario(scenario, args.out)
    print(
        f"wrote {args.out}: {scenario.grid.n_stops} stops, gl_x {sig4(scenario.grid.gl_x)} km,"
        f" lambda {sig4(scenario.service.demand_rate)}/h"
    )
    return 0


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def count_arg(text: str) -> int:
    """argparse type of a count flag (--replications, --workers, ...): an integer >= 1."""
    return _int_at_least(text, 1)


def seed_arg(text: str) -> int:
    """argparse type of --seed: an integer >= 0."""
    return _int_at_least(text, 0)


def values_arg(text: str) -> tuple:
    """argparse type of sweep --values: comma-separated numbers; blank items are skipped."""
    return tuple(float(v) for v in text.split(",") if v.strip())


@functools.cache  # built once per process, on the first main call; holds no per-call state
def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a shortened or misspelt flag is refused, not read as the flag it prefixes
    parser = argparse.ArgumentParser(prog="semibus", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter, allow_abbrev=False)
    add_verb = functools.partial(parser.add_subparsers(dest="verb", required=True).add_parser, allow_abbrev=False)

    p = add_verb("analytic", help="closed-form screening report")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--v-h", type=float, default=None, help="highway speed for the zonal table, km/h")
    p.add_argument("--n-max", type=count_arg, default=6)
    p.set_defaults(func=cmd_analytic)

    p = add_verb("screen", help="rank scenarios by selection indicator")
    p.add_argument("--scenario", required=True, nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_screen)

    p = add_verb("simulate", help="Monte Carlo run and report")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=seed_arg, default=None)
    p.add_argument("--replications", type=count_arg, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--workers", type=count_arg, default=1)
    p.add_argument("--trace", action="store_true", help="also write replication 0's on-demand waypoint trace")
    p.set_defaults(func=cmd_simulate)

    p = add_verb("sweep", help="sensitivity sweep")
    p.add_argument("--scenario", required=True)
    p.add_argument("--dimension", choices=("capacity", "lambda"), required=True)
    p.add_argument("--values", type=values_arg, required=True, help="comma-separated, strictly increasing")
    p.add_argument("--replications", type=count_arg, default=1000)
    p.add_argument("--seed", type=seed_arg, default=None)
    p.add_argument("--out", default=".")
    p.add_argument("--workers", type=count_arg, default=1)
    p.set_defaults(func=cmd_sweep)

    p = add_verb("ingest", help="scenario file from stop boardings CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--route-id", required=True)
    p.add_argument("--template", required=True, help="scenario supplying cost/service config")
    p.add_argument("--out", required=True)
    p.add_argument("--name", default=None)
    p.add_argument("--default-catchment-km", type=float, default=0.2)
    p.set_defaults(func=cmd_ingest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
