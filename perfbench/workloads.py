"""The benchmark's four workloads.

Each workload is a closed loop with one client: a pass starts when the
previous one has returned.  Its operations are replication batches, sweep
points or CLI invocations; an operation fails when it raises or when one of
the output checks in `checks` finds its output wrong.

`run_pass` is the untraced traffic whose wall and CPU time give the
end-to-end metrics.  `traced_pass` makes the same calls inside spans and
then replays their replications through the package's public layer
functions (sample_requests -> simulate_requests per mode ->
replication_metrics -> summarize), or, for CLI verbs, the analytic and
ingest functions the verb calls, so that each layer gets a self time.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
from spans import no_span

CORRIDORS = ("model1", "model2", "cta126", "cta84")
MODES = ("fixed", "amsod")
LAYERS = ("model", "simulator", "experiments", "analytic", "ingest", "cli")


def import_semibus():
    """Import the package afresh, so that every set-up pays for its import."""
    for name in [m for m in sys.modules if m == "semibus" or m.startswith("semibus.")]:
        del sys.modules[name]
    return type("Semibus", (), {m: importlib.import_module(f"semibus.{m}") for m in LAYERS})


def cpu_split() -> tuple:
    """(CPU seconds of this process, of its children that have ended)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def cpu_now() -> float:
    return sum(cpu_split())


@dataclass
class Sample:
    units: int  # paired replications or CLI invocations
    wall: float  # from the first call to the last report written
    cpu: float  # process and children over the same interval


# --- replay of paired replications -------------------------------------------


def count_replication(counts: Counter, sb, scenario, requests, logs: dict) -> None:
    """Add one replication's request and trip counts from its trip logs."""
    counts["reps"] += 1
    counts["requests"] += len(requests)
    for mode in MODES:
        served = {rid for log in logs[mode] for rid in log.served_ids}
        counts[f"{mode}.spilled"] += len({rid for log in logs[mode] for rid in log.spilled_ids})
        counts[f"{mode}.unserved"] += len(requests) - len(served)
    svc = scenario.service
    # trip i runs on sub-route i mod n_parallel and re-sorts every request
    # of that sub-route not served by an earlier trip
    left = [len(band) for band in sb.simulator.partition_parallel(requests, scenario.grid, svc.n_parallel)]
    for i, log in enumerate(logs["amsod"]):
        k = i % svc.n_parallel
        counts["trips"] += 1
        counts["full_trips"] += len(log.served_ids) >= svc.capacity
        counts["pickup_points"] += len({p.point for p in log.plan.pickups})
        counts["pending"] += left[k]
        counts["pending_served"] += len(log.served_ids)
        left[k] -= len(log.served_ids)


def replay(sb, scenario, entropy: tuple, reps: int, span=no_span):
    """Re-run replications 0..reps-1 of a run seeded with `entropy` layer by
    layer.  Returns (cost differences, counts, problems)."""
    E, S = sb.experiments, sb.simulator
    deltas, problems = [], []
    counts = Counter()
    values = {mode: {m: [] for m in E.METRICS} for mode in MODES}
    for r in range(reps):
        ss = np.random.SeedSequence(entropy=list(entropy), spawn_key=(r,))
        logs, per_mode = {}, []
        with span("experiments.replication", r):
            with span("simulator.sample_requests", r):
                requests = S.sample_requests(scenario.grid, scenario.service, np.random.default_rng(ss))
            for mode in MODES:
                with span(f"simulator.{mode}", r):
                    logs[mode] = S.simulate_requests(scenario, mode, requests)
                with span("experiments.replication_metrics", r):
                    per_mode.append(E.replication_metrics(scenario, requests, logs[mode]))
        deltas.append(per_mode[-1]["generalized_cost"] - per_mode[0]["generalized_cost"])
        for mode, metrics in zip(MODES, per_mode):
            for m in E.METRICS:
                values[mode][m].append(metrics[m])
        ids = [q.id for q in requests]
        for mode in MODES:
            problems += checks.served_once(f"{scenario.name} replication {r} {mode}", ids, logs[mode])
        count_replication(counts, sb, scenario, requests, logs)
    with span("experiments.summarize"):
        for mode in MODES:
            for m in E.METRICS:
                E.summarize(values[mode][m])
        E.summarize(deltas)
    return deltas, counts, problems


def verify_run(sb, ledger, op: int, scenario, entropy: tuple, run, span=no_span) -> Counter:
    """Replay a run's replications and check its output against them."""
    deltas, counts, problems = replay(sb, scenario, entropy, run.replications, span)
    problems += checks.deltas_equal(scenario.name, deltas, run.delta_tc_values)
    problems += checks.operator_cost(scenario.name, run.fixed.metrics["operator_cost"])
    ledger.report(op, problems)
    return counts


def time_require_valid(sb, scenario, calls: int, span) -> None:
    """run_scenario validates once and simulate_requests once per mode;
    time the same number of calls on their own.  The calls inside
    simulate_requests stay in the simulator spans."""
    with span("model.require_valid"):
        for _ in range(calls):
            sb.model.require_valid(scenario)


# --- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    # span names of the workload's own calls, the work an untraced pass does
    calls = ()

    def __init__(self, seed: int, out: Path, ledger: checks.Ledger):
        self.seed = seed
        self.out = out
        self.ledger = ledger
        self.counts = Counter()  # from pass 0; they must repeat exactly
        self.extra = {}  # per-layer values that do not come from spans
        self.first = None  # output of pass 0, which repeats of the seed must match

    def attempt(self, ops, fn, *args, **kwargs):
        """Run fn as the operations `ops`; an exception fails them."""
        try:
            return fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            self.ledger.report(ops, ["raised"])
            return None

    def setup(self, span=no_span) -> None:
        """Import the package and build the inputs; the state of the passes
        run so far is kept, so set-up can be repeated between passes."""
        raise NotImplementedError

    def run_pass(self, p: int):
        raise NotImplementedError

    def finish(self, passes: int) -> None:
        """Checks that need more than one pass."""

    def traced_pass(self, p: int, tracer) -> None:
        raise NotImplementedError

    def first_pass(self) -> list:
        """(scenario, seed entropy) of every batch in pass 0; the count
        metrics come from their replications."""
        return []

    def traced_finish(self) -> None:
        """Count metrics must repeat exactly for the same seed."""
        again = Counter()
        for scn, entropy in self.first_pass():
            again += replay(self.sb, scn, entropy, self.REPS)[1]
        self.ledger.report(0, checks.same("count metrics", again, self.counts))


class Corridors(Workload):
    """The four bundled corridors at their shipped parameters; pass p runs
    each with REPS replications on seed (seed, p) and writes its csv report."""

    name = "corridors"
    calls = ("call.run_scenario", "call.emit_report")
    REPS = 25
    # the acceptance intervals are checked on the pooled first CHECK_PASSES
    # passes (800 replications per corridor), run untimed when the timed loop
    # ended earlier, so the verdict depends on the seed only
    CHECK_PASSES = 32

    def __init__(self, *args):
        super().__init__(*args)
        self.batches = {}  # pass -> [(op, run) per corridor]

    def setup(self, span=no_span):
        with span("setup"):
            sb = import_semibus()
            scenarios = []
            for name in CORRIDORS:
                with span("model.load_scenario"):
                    scenarios.append(sb.model.load_scenario(sb.cli.bundled_path(name)))
        self.sb, self.scenarios = sb, scenarios

    def _batch(self, scenario, p: int):
        E = self.sb.experiments
        run = E.run_scenario(scenario, replications=self.REPS, seed=(self.seed, p), workers=1)
        paths = E.emit_report(run, self.out, fmt="csv")
        return run, paths

    def run_pass(self, p):
        ops = [self.ledger.new_op() for _ in self.scenarios]
        t0, c0 = time.perf_counter(), cpu_now()
        done = [self.attempt(op, self._batch, scn, p) for op, scn in zip(ops, self.scenarios)]
        wall, cpu = time.perf_counter() - t0, cpu_now() - c0
        self.batches[p] = [(op, d[0] if d else None) for op, d in zip(ops, done)]
        for (op, run), scn in zip(self.batches[p], self.scenarios):
            if run is not None:
                self.ledger.report(op, checks.operator_cost(scn.name, run.fixed.metrics["operator_cost"]))
        return Sample(units=self.REPS * len(ops), wall=wall, cpu=cpu) if all(done) else None

    def finish(self, passes):
        for p in range(passes, self.CHECK_PASSES):
            self.run_pass(p)
        E = self.sb.experiments
        for (op, run), scn in zip(self.batches[0], self.scenarios):
            if run is None:
                continue
            again = self.attempt(op, E.run_scenario, scn, replications=self.REPS, seed=(self.seed, 0), workers=1)
            if again is not None:
                self.ledger.report(op, checks.same(f"{scn.name} run_to_dict", E.run_to_dict(again), E.run_to_dict(run)))
            self.attempt(op, verify_run, self.sb, self.ledger, op, scn, (self.seed, 0), run)
        self._check_acceptance()

    def _check_acceptance(self):
        med = {}
        for k, scn in enumerate(self.scenarios):
            items = [self.batches[p][k] for p in range(self.CHECK_PASSES)]
            runs = [run for _, run in items if run is not None]
            if len(runs) < len(items):
                continue  # already failed
            med[scn.name] = {"delta_tc": statistics.median(d for run in runs for d in run.delta_tc_values)}
            for mode in MODES:
                for m in ("avg_wait_min", "avg_ivtt_min"):
                    med[scn.name][f"{mode}.{m}"] = statistics.median(
                        run.stats_for(mode).metrics[m].median for run in runs
                    )
        if len(med) < len(self.scenarios):
            return
        for name, problem in checks.acceptance(med):
            k = CORRIDORS.index(name)
            self.ledger.report([self.batches[p][k][0] for p in range(self.CHECK_PASSES)], [problem])

    def traced_pass(self, p, tracer):
        E = self.sb.experiments
        for scn in self.scenarios:
            op = self.ledger.new_op()
            with tracer.span("call.run_scenario"):
                run = self.attempt(
                    op, E.run_scenario, scn, replications=self.REPS, seed=(self.seed, p), workers=1
                )
            if run is None:
                continue
            with tracer.span("call.emit_report"):
                paths = self.attempt(op, E.emit_report, run, self.out, fmt="csv")
            time_require_valid(self.sb, scn, 2 * self.REPS, tracer.span)
            counts = self.attempt(op, verify_run, self.sb, self.ledger, op, scn, (self.seed, p), run, tracer.span)
            if p == 0 and paths and counts is not None:
                self.counts += counts
                self.extra.setdefault("experiments.emit.bytes", []).append(sum(Path(f).stat().st_size for f in paths))

    def first_pass(self):
        return [(scn, (self.seed, 0)) for scn in self.scenarios]


class Sweep(Workload):
    """A demand (`lambda`) sweep on one corridor; every pass repeats the
    same sweep on the same seed and ends with emit_sweep."""

    CORRIDOR = ""
    VALUES = ()
    REPS = 0
    WORKERS = 1

    def setup(self, span=no_span):
        with span("setup"):
            sb = import_semibus()
            with span("model.load_scenario"):
                base = sb.model.load_scenario(sb.cli.bundled_path(self.CORRIDOR))
            self.spec = sb.experiments.SweepSpec("lambda", self.VALUES, self.REPS, base)
            self.variants = [replace(base, service=replace(base.service, demand_rate=v)) for v in self.VALUES]
        self.sb, self.base = sb, base

    def _sweep(self, workers: int):
        E = self.sb.experiments
        result = E.sweep(self.spec, seed=self.seed, workers=workers)
        path = E.emit_sweep(result, self.base.name, self.out)
        return result, path

    def _check(self, ops, result, label: str) -> None:
        """Operator cost, and the same output as pass 0 for the same seed."""
        E = self.sb.experiments
        dicts = [E.run_to_dict(run) for run in result.runs]
        if self.first is None:
            self.first = dicts
        for op, run, d, want in zip(ops, result.runs, dicts, self.first):
            self.ledger.report(
                op,
                checks.operator_cost(self.base.name, run.fixed.metrics["operator_cost"])
                + checks.same(f"{label} {run.scenario_name} run_to_dict", d, want),
            )

    def run_pass(self, p):
        ops = [self.ledger.new_op() for _ in self.VALUES]
        t0, c0 = time.perf_counter(), cpu_now()
        done = self.attempt(ops, self._sweep, self.WORKERS)
        wall, cpu = time.perf_counter() - t0, cpu_now() - c0
        if done is None:
            return None
        self._check(ops, done[0], f"workers={self.WORKERS}")
        return Sample(units=self.REPS * len(ops), wall=wall, cpu=cpu)

    def finish(self, passes):
        """Replay the sweep's replications and compare them with it."""
        ops = [self.ledger.new_op() for _ in self.VALUES]
        done = self.attempt(ops, self._sweep, 1)
        if done is None:
            return
        self._check(ops, done[0], "workers=1")
        for idx, (op, scn, run) in enumerate(zip(ops, self.variants, done[0].runs)):
            self.attempt(op, verify_run, self.sb, self.ledger, op, scn, (self.seed, idx), run)

    def _traced_sweep(self, p, tracer):
        """The sweep as the untraced pass makes it, inside one span."""
        ops = [self.ledger.new_op() for _ in self.VALUES]
        with tracer.span("call.sweep") as span:
            result = self.attempt(ops, self.sb.experiments.sweep, self.spec, seed=self.seed, workers=1)
        if result is None:
            return None, ops, span
        with tracer.span("call.emit_sweep"):
            path = self.attempt(ops, self.sb.experiments.emit_sweep, result, self.base.name, self.out)
        if p == 0 and path is not None:
            self.extra.setdefault("experiments.emit.bytes", []).append(Path(path).stat().st_size)
        self._check(ops, result, "workers=1")
        return result, ops, span

    def _replay_sweep(self, p, tracer, result, ops) -> None:
        for idx, (op, scn, run) in enumerate(zip(ops, self.variants, result.runs)):
            time_require_valid(self.sb, scn, 2 * self.REPS, tracer.span)
            counts = self.attempt(op, verify_run, self.sb, self.ledger, op, scn, (self.seed, idx), run, tracer.span)
            if p == 0 and counts is not None:
                self.counts += counts

    def traced_pass(self, p, tracer):
        result, ops, _ = self._traced_sweep(p, tracer)
        if result is not None:
            self._replay_sweep(p, tracer, result, ops)

    def first_pass(self):
        return [(scn, (self.seed, idx)) for idx, scn in enumerate(self.variants)]


class PeakSweep(Sweep):
    name = "peak_sweep"
    calls = ("call.sweep", "call.emit_sweep")
    CORRIDOR = "cta126"
    # 2-4x the corridor's closed-form demand ceiling of 120/h: 60-120
    # pickups per trip against a capacity of 30, so every trip spills.
    # Fixed numbers, so that the inputs do not move with the analytic code.
    VALUES = (240.0, 300.0, 360.0, 420.0, 480.0)
    REPS = 5


class LowDemand2w(Sweep):
    name = "low_demand_2w"
    calls = ("call.sweep", "call.sweep_2w", "call.emit_sweep")
    CORRIDOR = "model1"
    # below the corridor's 88/h ceiling: 30-120 requests per replication
    VALUES = (10.0, 20.0, 30.0, 40.0)
    REPS = 60
    WORKERS = 2

    def traced_pass(self, p, tracer):
        """The workers=2 sweep, then the workers=1 sweep as the scaling
        reference and as the run whose replications are replayed."""
        ops = [self.ledger.new_op() for _ in self.VALUES]
        before = cpu_split()
        with tracer.span("call.sweep_2w") as span2:
            result2 = self.attempt(ops, self.sb.experiments.sweep, self.spec, seed=self.seed, workers=2)
        after = cpu_split()
        if result2 is None:
            return
        self._check(ops, result2, "workers=2")
        result1, ops1, span1 = self._traced_sweep(p, tracer)
        if result1 is None:
            return
        self.extra.setdefault("pool", []).append(
            {
                "wall2": span2.duration,
                "wall1": span1.duration,
                "worker_cpu": after[1] - before[1],
                "parent_cpu": after[0] - before[0],
            }
        )
        self._replay_sweep(p, tracer, result1, ops1)


class ScreenIngest(Workload):
    """One round: `ingest` of both bundled boardings CSVs, `screen` over the
    four corridors, `analytic --v-h 50` for each, all through cli.main with
    stdout captured.  An untraced pass makes ROUNDS rounds, a traced pass
    one.  The seed orders the corridors."""

    name = "screen_ingest"
    calls = ("call.cli.main",)
    INGEST = (("cta126", "126"), ("cta84", "84"))
    # rounds of the eight invocations per timed pass: one round takes about
    # 15 ms, too short to time against the host-speed blocks
    ROUNDS = 20

    def setup(self, span=no_span):
        with span("setup"):
            sb = import_semibus()
            data = sb.cli.bundled_path("cta126").parent
            order = list(CORRIDORS)
            random.Random(self.seed).shuffle(order)
            jobs = [
                ("ingest", name, ["ingest", "--data", str(data / f"{name}_boardings.csv"), "--route-id", route,
                                  "--template", name, "--out", str(self.out / f"{name}.json")])
                for name, route in self.INGEST
            ]
            jobs.append(("screen", None, ["screen", "--scenario", *order, "--out", str(self.out)]))
            jobs += [
                ("analytic", name, ["analytic", "--scenario", name, "--v-h", "50", "--out", str(self.out)])
                for name in order
            ]
            bundled = {name: sb.cli.bundled_path(name).read_bytes() for name, _ in self.INGEST}
        self.sb, self.jobs, self.order, self.bundled, self.data = sb, jobs, order, bundled, data

    def _invoke(self, argv) -> tuple:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = self.sb.cli.main(argv)
        return rc, buf.getvalue()

    def _output_file(self, verb: str, name) -> Path:
        if verb == "ingest":
            return self.out / f"{name}.json"
        if verb == "screen":
            return self.out / "screen_ranking.csv"
        return self.out / f"{name}_analytic.json"

    def _check(self, ops, results) -> None:
        outputs = []
        for k, (op, (verb, name, _), got) in enumerate(zip(ops, self.jobs, results)):
            if got is None:
                outputs.append(None)
                continue
            rc, stdout = got
            data = self._output_file(verb, name).read_bytes()
            outputs.append((stdout, data))
            problems = [] if rc == 0 else [f"{verb} {name}: exit code {rc}"]
            if verb == "ingest" and data != self.bundled[name]:
                problems.append(f"ingest of the {name} boardings does not reproduce the bundled scenario")
            if verb == "screen":
                problems += checks.screen_ranking(data.decode())
            if self.first is not None:
                problems += checks.same(f"{verb} {name} output", outputs[k], self.first[k])
            self.ledger.report(op, problems)
        if self.first is None:
            self.first = outputs

    def run_pass(self, p):
        """ROUNDS rounds of the jobs; the checks between them are not timed."""
        wall = cpu = 0.0
        ok = True
        for _ in range(self.ROUNDS):
            ops = [self.ledger.new_op() for _ in self.jobs]
            t0, c0 = time.perf_counter(), cpu_now()
            results = [self.attempt(op, self._invoke, argv) for op, (_, _, argv) in zip(ops, self.jobs)]
            wall, cpu = wall + time.perf_counter() - t0, cpu + cpu_now() - c0
            self._check(ops, results)
            ok = ok and all(results)
        return Sample(units=self.ROUNDS * len(self.jobs), wall=wall, cpu=cpu) if ok else None

    def _replay(self, verb, name, op, span) -> None:
        """The model, analytic and ingest calls the verb makes."""
        sb = self.sb
        A, M = sb.analytic, sb.model

        def resolve(corridor):
            with span("model.load_scenario", op):
                scn = M.load_scenario(sb.cli.bundled_path(corridor))
            with span("model.scenario_problems", op):
                M.scenario_problems(scn)
            return scn

        def screen(scn):
            with span("analytic.screen", op):
                md = A.screening_dispersion(scn.grid)
                access = A.screening_mean_access(scn.service)
                A.selection_indicator(scn.cost, scn.service, md, access)
                A.demand_upper_bound(scn.cost, scn.service, md, access)
            return md, access

        if verb == "ingest":
            template = resolve(name)
            with span("ingest.parse_boardings", op):
                records = sb.ingest.parse_boardings(self.data / f"{name}_boardings.csv", dict(self.INGEST)[name])
            with span("ingest.build_route_model", op):
                scn = sb.ingest.build_route_model(records, template, default_catchment_km=0.2, name=template.name)
            with span("model.save_scenario", op):
                M.save_scenario(scn, self.out / f"replay_{name}.json")
            self.extra.setdefault("rows", []).append((name, len(records)))
        elif verb == "screen":
            for corridor in self.order:
                screen(resolve(corridor))
        else:
            scn = resolve(name)
            md, access = screen(scn)
            svc = scn.service
            with span("analytic.parallel_metrics", op):
                A.parallel_metrics(scn.cost, svc, md, access, svc.n_parallel if svc.n_parallel > 1 else 2)
            with span("analytic.zonal_plan", op):
                A.zonal_plan(scn.cost, scn.grid, replace(svc, v_h=50.0), md, 6)

    def traced_pass(self, p, tracer):
        ops = [self.ledger.new_op() for _ in self.jobs]
        results = []
        for op, (verb, name, argv) in zip(ops, self.jobs):
            with tracer.span("call.cli.main", op):
                results.append(self.attempt(op, self._invoke, argv))
            self.attempt(op, self._replay, verb, name, op, tracer.span)
        self._check(ops, results)

    def traced_finish(self):
        rows = self.extra.get("rows", [])
        self.ledger.report(0, checks.same("ingest row counts", set(rows), set(rows[: len(self.INGEST)])))


WORKLOADS = {w.name: w for w in (Corridors, PeakSweep, LowDemand2w, ScreenIngest)}
