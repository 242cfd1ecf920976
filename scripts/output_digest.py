"""Print one SHA-256 per output section of the package.

Two checkouts that print the same digest for a section produce the same
bytes there, so a refactor can show that it keeps every number, or which
section it changes.  Sections:

  reports  run_to_dict and delta_tc_values of the four bundled corridors,
           each at its shipped settings, zonal (n_zones 3, v_h 60 km/h),
           crowded (capacity 5, lambda 200/h) and backlogged (shipped
           capacity, lambda 480/h)
  logs     per trip of simulator.simulate_requests, the repr of (c_o,
           rows, spilled ids, drive, depart time), both modes, on each
           scenario's own seed; the drive is None for the fixed route, and
           on demand its served records (id, t_k, arrival, point) and
           route (start x, end x, d_y, express legs, end time)
  cli      stdout and written files of simulate, screen, analytic --v-h 50,
           sweep, and ingest of the two bundled boardings CSVs with their
           own templates (output and data directories replaced by
           placeholders)
  trace    the trace files of simulate --trace
  closed_form
           the float reprs of hourly_cost_fixed, hourly_cost_amsod,
           delta_tc_hourly, parallel_metrics (n_p 2) and zonal_plan (v_h
           60 km/h where unset, n_max 6) of the same scenarios, at their
           screening dispersion and mean access

Usage, from a checkout (point PYTHONPATH at another checkout's src/ to
digest that one):

    PYTHONPATH=src python3 scripts/output_digest.py

With --by-variant it prints instead one digest per variant and mode, of
that mode's run_to_dict statistics and trip records, to show which
variants and which mode a change moves.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

from semibus import analytic, cli, experiments, simulator
from semibus.model import load_scenario

REPLICATIONS = 40
CLI_REPLICATIONS = "10"
DATA = cli.bundled_path("cta126").parent
INGEST = (("cta126", "126"), ("cta84", "84"))


def variants():
    for name in cli.BUNDLED:
        base = load_scenario(cli.bundled_path(name))
        svc = base.service
        yield name, base
        yield f"{name}-zonal3", replace(base, service=replace(svc, n_parallel=1, n_zones=3, v_h=60.0))
        yield f"{name}-cap5-lam200", replace(base, service=replace(svc, capacity=5, demand_rate=200.0))
        yield f"{name}-lam480", replace(base, service=replace(svc, demand_rate=480.0))


def digest_reports() -> str:
    h = hashlib.sha256()
    for label, scenario in variants():
        run = experiments.run_scenario(scenario, replications=REPLICATIONS)
        h.update(label.encode())
        h.update(json.dumps(experiments.run_to_dict(run), sort_keys=True).encode())
        h.update(repr(run.delta_tc_values).encode())
    return h.hexdigest()


def hash_trips(h, scenario, mode: str) -> None:
    """Feed the TripLogs of the scenario's own seed to h."""
    requests = simulator.sample_requests(scenario.grid, scenario.service, scenario.seed)
    departures = simulator.build_schedule(scenario.grid, scenario.service).departures
    for dep, log in zip(departures, simulator.simulate_requests(scenario, mode, requests), strict=True):
        plan, drive = log.plan, None
        if plan is not None:
            served = [(p.request_id, row[1], p.time, p.point) for p, row in zip(plan.pickups, log.rows, strict=True)]
            drive = served, (plan.waypoints[0][0], plan.waypoints[-1][0], plan.d_y, plan.express_legs, plan.end_time)
            dep = plan.depart_time
        h.update(repr((log.c_o, list(log.rows), list(log.spilled_ids), drive, dep)).encode())


def digest_logs() -> str:
    h = hashlib.sha256()
    for label, scenario in variants():
        for mode in ("fixed", "amsod"):
            h.update(f"{label} {mode}".encode())
            hash_trips(h, scenario, mode)
    return h.hexdigest()


def digest_closed_form() -> str:
    h = hashlib.sha256()
    for label, scenario in variants():
        cost, grid, svc = scenario.cost, scenario.grid, scenario.service
        md, access = analytic.screening_dispersion(grid), analytic.screening_mean_access(svc)
        fixed = analytic.hourly_cost_fixed(cost, grid, svc, access)
        amsod = analytic.hourly_cost_amsod(cost, grid, svc, md)
        par = analytic.parallel_metrics(cost, svc, md, access, 2)
        plan = analytic.zonal_plan(cost, grid, svc if svc.v_h is not None else replace(svc, v_h=60.0), md, 6)
        values = [analytic.delta_tc_hourly(cost, grid, svc, md, access), par.si, par.demand_bound]
        values += [plan.n_continuous, plan.n_opt, fixed.access, amsod.access]
        for c in (fixed, amsod) + plan.table:  # every row's fields, not its type's repr
            values += [c.wait, c.ride, c.operator, c.total]
        h.update(label.encode())
        h.update(repr(values).encode())
    return h.hexdigest()


def digest_by_variant() -> list:
    """(variant, mode, digest) rows."""
    rows = []
    for label, scenario in variants():
        run = experiments.run_scenario(scenario, replications=REPLICATIONS)
        stats = experiments.run_to_dict(run)["stats"]
        for mode in run.modes:
            h = hashlib.sha256()
            h.update(json.dumps(stats[mode], sort_keys=True).encode())
            hash_trips(h, scenario, mode)
            rows.append((label, mode, h.hexdigest()))
    return rows


def cli_commands() -> list:
    commands = []
    for name in cli.BUNDLED:
        commands.append(["simulate", "--scenario", name, "--replications", CLI_REPLICATIONS, "--trace"])
        commands.append(["analytic", "--scenario", name, "--v-h", "50"])
    commands.append(["screen", "--scenario", "cta126", "model1", "cta84", "model2"])
    commands.append(
        ["sweep", "--scenario", "model1", "--dimension", "capacity", "--values", "10,20,30"]
        + ["--replications", CLI_REPLICATIONS]
    )
    for name, route in INGEST:
        commands.append(["ingest", "--data", str(DATA / f"{name}_boardings.csv"), "--route-id", route, "--template", name])
    return commands


def digest_cli() -> tuple:
    """(cli digest, trace digest)."""
    h_cli, h_trace = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(cli_commands()):
            out = Path(tmp) / str(i)
            out_arg = out
            if argv[0] == "ingest":  # its --out names the file written
                out.mkdir()
                out_arg = out / "scenario.json"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(argv + ["--out", str(out_arg)])
            h_cli.update(f"{' '.join(argv)} -> {rc}\n".replace(str(DATA), "<data>").encode())
            h_cli.update(stdout.getvalue().replace(str(out), "<out>").encode())
            for path in sorted(out.iterdir()) if out.is_dir() else ():
                target = h_trace if path.name.endswith("_trace.csv") else h_cli
                target.update(path.name.encode())
                target.update(path.read_bytes())
    return h_cli.hexdigest(), h_trace.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description="Print one SHA-256 per output section.")
    parser.add_argument("--by-variant", action="store_true", help="one digest per variant and mode instead")
    if parser.parse_args().by_variant:
        for label, mode, value in digest_by_variant():
            print(f"{label:<20s} {mode:<6s} {value}")
        return
    cli_digest, trace_digest = digest_cli()
    for section, value in (
        ("reports", digest_reports()),
        ("logs", digest_logs()),
        ("cli", cli_digest),
        ("trace", trace_digest),
        ("closed_form", digest_closed_form()),
    ):
        print(f"{section:<8s} {value}")


if __name__ == "__main__":
    main()
