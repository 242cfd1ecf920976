"""Monte Carlo replication runner, percentile statistics, sensitivity
sweeps, and plot-ready report files.

Each replication draws one demand realization and runs it through both
service modes (common random numbers), so per-replication cost
differences are paired.  Passenger costs aggregate the warm-up counting
window only; operator costs accrue for every departure in the horizon.
Replication r of a run seeded with s uses the independent substream
SeedSequence(s, spawn_key=(r,)), so results are identical for any worker
count and execution order.
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .model import MetricSummary, Scenario, ScenarioError, ScenarioStats, ServiceConfig, require_valid
from .model import scenario_from_dict, scenario_to_dict
from .simulator import sample_demand, trip_records

METRICS = (
    "avg_wait_min",
    "avg_ivtt_min",
    "access_cost",
    "waiting_cost",
    "riding_cost",
    "operator_cost",
    "generalized_cost",
    "passengers",
)

TABLE_ROWS = METRICS[:7] + ("generalized_cost_diff", "passengers")

HIST_BINS = 30


def summarize(values: Sequence[float]) -> MetricSummary:
    """Median and the empirical 2.5/97.5 percentiles (linear interpolation
    of order statistics)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty input")
    lo, med, hi = np.percentile(arr, [2.5, 50.0, 97.5])
    return MetricSummary(median=float(med), p2_5=float(lo), p97_5=float(hi))


def _window_metrics(scenario: Scenario, trips) -> dict:
    """Aggregate one replication's trip records, each starting (c_o,
    passenger rows (id, t_k, wait, ivtt, access)), to the reported metrics.

    Averages cover passengers whose request time falls in the warm-up
    counting window and who were actually served; operator cost covers
    every departure.  Sums run left to right in trip, then boarding order;
    reported numbers depend on that order.
    """
    cost, svc = scenario.cost, scenario.service
    w0, w1 = svc.warmup_window
    counted = 0
    wait_sum = ivtt_sum = access_sum = 0.0
    c_o = 0.0
    for trip_c_o, rows, *_ in trips:
        c_o += trip_c_o
        for _, t_k, wait, ivtt, access in rows:
            if w0 <= t_k < w1:
                counted += 1
                wait_sum += wait
                ivtt_sum += ivtt
                access_sum += access
    c_a = cost.gamma_a * cost.vot * access_sum
    c_w = cost.gamma_w * cost.vot * wait_sum
    c_r = cost.gamma_r * cost.vot * ivtt_sum
    return {
        "avg_wait_min": 60.0 * wait_sum / counted if counted else 0.0,
        "avg_ivtt_min": 60.0 * ivtt_sum / counted if counted else 0.0,
        "access_cost": c_a,
        "waiting_cost": c_w,
        "riding_cost": c_r,
        "operator_cost": c_o,
        "generalized_cost": c_a + c_w + c_r + c_o,
        "passengers": float(counted),
    }


def replication_metrics(scenario: Scenario, requests, logs) -> dict:
    """Aggregate one replication's trip logs to the reported metrics, as
    run_scenario aggregates the departure loops' rows."""
    t_k = {r.id: r.t_k for r in requests}
    trips = [(log.costs.c_o, zip(log.served_ids, log.costs.per_passenger)) for log in logs]
    return _window_metrics(scenario, [(c_o, [(i, t_k[i], o.wait, o.ivtt, o.access) for i, o in pairs]) for c_o, pairs in trips])


@dataclass(frozen=True)
class ScenarioRun:
    scenario_name: str
    modes: tuple
    stats: tuple  # ScenarioStats per mode, same order
    delta_tc: MetricSummary  # second mode minus first, per replication
    delta_tc_values: tuple
    replications: int
    seed: tuple

    def stats_for(self, mode: str) -> ScenarioStats:
        return self.stats[self.modes.index(mode)]

    @property
    def fixed(self) -> ScenarioStats:
        return self.stats_for("fixed")

    @property
    def amsod(self) -> ScenarioStats:
        return self.stats_for("amsod")


def _entropy(seed) -> tuple:
    items = list(seed) if hasattr(seed, "__iter__") else [seed]
    if not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool) and s >= 0 for s in items):
        raise ValueError(f"seed must be a non-negative integer or a sequence of them, got {seed!r}")
    return tuple(int(s) for s in items)


def replication_rng(entropy: tuple, rep: int) -> np.random.Generator:
    """The generator of replication rep in a run seeded with entropy."""
    return np.random.default_rng(np.random.SeedSequence(entropy=list(entropy), spawn_key=(rep,)))


def _one_replication(args):
    scenario, mode_scenarios, modes, entropy, rep = args
    demand = sample_demand(scenario.grid, scenario.service, replication_rng(entropy, rep))
    per_mode = (_window_metrics(scn, trip_records(scn, mode, demand)) for mode, scn in zip(modes, mode_scenarios))
    return tuple(per_mode)


def _check_workers(workers) -> None:
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")


def _pool(workers: int, replications) -> ProcessPoolExecutor:
    """A pool of no more processes than there are replications to run."""
    return ProcessPoolExecutor(max_workers=min(workers, int(replications)))


def run_scenario(
    scenario: Scenario,
    replications: Optional[int] = None,
    seed=None,
    workers: int = 1,
    modes: tuple = ("fixed", "amsod"),
    amsod_service: Optional[ServiceConfig] = None,
) -> ScenarioRun:
    """Paired Monte Carlo for two service modes on common demand draws.

    amsod_service, when given, replaces the service design for the
    on-demand side only (capacity sensitivity keeps the incumbent
    fixed-route bus unchanged); demand and horizon must match so the
    request realizations stay shared.

    workers > 1 runs the replications on a pool of min(workers,
    replications) processes, one contiguous block each, opened after every
    argument check and joined before this returns or raises.
    """
    return _run_scenario(scenario, replications, seed, workers, modes, amsod_service, None)


def _run_scenario(scenario, replications, seed, workers, modes, amsod_service, pool) -> ScenarioRun:
    """run_scenario on pool when given (sweep shares one), else on its own."""
    require_valid(scenario)
    J = scenario.replications if replications is None else replications
    if isinstance(J, bool) or not float(J).is_integer() or J < 1:
        raise ValueError(f"replications must be an integer >= 1, got {J!r}")
    J = int(J)
    entropy = _entropy(scenario.seed if seed is None else seed)
    if not modes or any(mode not in ("fixed", "amsod") for mode in modes):
        raise ValueError(f"modes must be a nonempty sequence of 'fixed' and 'amsod', got {modes!r}")
    _check_workers(workers)

    amsod = scenario
    if amsod_service is not None:
        shared = ("demand_rate", "horizon", "warmup_window")
        if any(getattr(amsod_service, f) != getattr(scenario.service, f) for f in shared):
            raise ValueError("amsod_service must keep demand and horizon of the base scenario")
        amsod = require_valid(replace(scenario, service=amsod_service))
    mode_scenarios = tuple(amsod if mode == "amsod" else scenario for mode in modes)

    jobs = [(scenario, mode_scenarios, tuple(modes), entropy, rep) for rep in range(J)]
    if workers == 1:
        per_rep = [_one_replication(job) for job in jobs]
    else:  # one block of jobs per worker; map keeps job order
        with _pool(workers, J) if pool is None else nullcontext(pool) as pool:
            per_rep = list(pool.map(_one_replication, jobs, chunksize=-(-J // workers)))
    stats = tuple(
        ScenarioStats(metrics={m: summarize([p[k][m] for p in per_rep]) for m in METRICS}, replications=J)
        for k in range(len(modes))
    )
    delta = [p[-1]["generalized_cost"] - p[0]["generalized_cost"] for p in per_rep]
    return ScenarioRun(
        scenario_name=scenario.name,
        modes=tuple(modes),
        stats=stats,
        delta_tc=summarize(delta),
        delta_tc_values=tuple(delta),
        replications=J,
        seed=entropy,
    )


@dataclass(frozen=True)
class SweepSpec:
    dimension: str  # "capacity" | "lambda"
    values: tuple
    replications: int
    scenario: Scenario

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.dimension not in ("capacity", "lambda"):
            raise ScenarioError(f"unknown sweep dimension {self.dimension!r}")
        if not self.values:
            raise ScenarioError("sweep values must be nonempty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ScenarioError("sweep values must be strictly increasing")
        for value in self.values:
            self.scenario_at(value)

    def scenario_at(self, value: float) -> Scenario:
        """The scenario at one sweep value: the swept service key (the
        dimension's name in scenario files) and the run's replications are
        set, then parsed and validated as a scenario file would be."""
        data = scenario_to_dict(self.scenario)
        data["service"][self.dimension] = value
        data["run"]["replications"] = self.replications
        return scenario_from_dict(data)


@dataclass(frozen=True)
class SweepRow:
    value: float
    delta_tc_median: float
    fixed_wait_min: float
    fixed_ivtt_min: float
    amsod_wait_min: float
    amsod_ivtt_min: float


@dataclass(frozen=True)
class SweepResult:
    dimension: str
    rows: tuple
    runs: tuple


def sweep(spec: SweepSpec, seed=None, workers: int = 1) -> SweepResult:
    """One run_scenario per value; value index i runs on substream
    (seed, i), fixed per index for reproducibility.

    A capacity sweep sizes the on-demand minibus only; the fixed-route
    baseline keeps the scenario's own capacity.  A demand sweep moves
    both services together.

    workers > 1 runs every value on one pool, sized and dealt as in
    run_scenario, opened after seed and workers are checked and joined
    before this returns or raises.
    """
    base = spec.scenario
    entropy = _entropy(base.seed if seed is None else seed)
    _check_workers(workers)
    rows = []
    runs = []
    with _pool(workers, spec.replications) if workers > 1 else nullcontext() as pool:
        for idx, value in enumerate(spec.values):
            swept = spec.scenario_at(value)
            if spec.dimension == "capacity":
                scn, amsod_svc = base, swept.service
            else:
                scn, amsod_svc = swept, None
            run = _run_scenario(scn, spec.replications, entropy + (idx,), workers, ("fixed", "amsod"), amsod_svc, pool)
            rows.append(
                SweepRow(
                    value=value,
                    delta_tc_median=run.delta_tc.median,
                    fixed_wait_min=run.fixed.metrics["avg_wait_min"].median,
                    fixed_ivtt_min=run.fixed.metrics["avg_ivtt_min"].median,
                    amsod_wait_min=run.amsod.metrics["avg_wait_min"].median,
                    amsod_ivtt_min=run.amsod.metrics["avg_ivtt_min"].median,
                )
            )
            runs.append(run)
    return SweepResult(dimension=spec.dimension, rows=tuple(rows), runs=tuple(runs))


# --- report emission ---------------------------------------------------------


def sig4(x: float) -> str:
    if not math.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    return f"{x:.4g}"


def _cell(s: MetricSummary) -> str:
    return f"{sig4(s.median)} ({sig4(s.p2_5)} - {sig4(s.p97_5)})"


def delta_tc_histogram(values: Sequence[float]):
    """HIST_BINS equal-width bins spanning the empirical 0.5-99.5 percentile range."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty input")
    lo, hi = np.percentile(arr, [0.5, 99.5])
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(arr, bins=HIST_BINS, range=(lo, hi))
    return counts, edges


def run_to_dict(run: ScenarioRun) -> dict:
    return {
        "scenario": run.scenario_name,
        "modes": list(run.modes),
        "replications": run.replications,
        "seed": list(run.seed),
        "stats": {
            mode: {m: asdict(s) for m, s in stats.metrics.items()} for mode, stats in zip(run.modes, run.stats)
        },
        "delta_tc": asdict(run.delta_tc),
    }


def emit_report(run: ScenarioRun, out_dir: Union[str, Path], fmt: str = "csv") -> list:
    """Write the scenario report; returns the written paths.

    csv: metric table (one row per metric, cells "median (p2.5 - p97.5)"),
    the cost-difference histogram bins, and the full-precision JSON.
    json: the JSON only.
    """
    if not run.delta_tc_values:
        raise ValueError("empty input")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = run.scenario_name
    written = []

    json_path = out_dir / f"{name}_stats.json"
    json_path.write_text(json.dumps(run_to_dict(run), indent=2, sort_keys=True) + "\n")
    written.append(json_path)
    if fmt == "json":
        return written

    table_path = out_dir / f"{name}_table.csv"
    with open(table_path, "w", newline="") as fh:
        fh.write("metric," + ",".join(run.modes) + "\n")
        for row in TABLE_ROWS:
            if row == "generalized_cost_diff":
                cells = [_cell(run.delta_tc)] + [""] * (len(run.modes) - 1)
            else:
                cells = [_cell(stats.metrics[row]) for stats in run.stats]
            fh.write(row + "," + ",".join(f'"{c}"' if c else "" for c in cells) + "\n")
    written.append(table_path)

    counts, edges = delta_tc_histogram(run.delta_tc_values)
    hist_path = out_dir / f"{name}_delta_tc_hist.csv"
    with open(hist_path, "w", newline="") as fh:
        fh.write("bin_left,bin_right,count\n")
        for i, c in enumerate(counts):
            fh.write(f"{edges[i]!r},{edges[i + 1]!r},{int(c)}\n")
    written.append(hist_path)
    return written


def emit_sweep(result: SweepResult, scenario_name: str, out_dir: Union[str, Path]) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{scenario_name}_{result.dimension}_sweep.csv"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f.name for f in fields(SweepRow)) + "\n")
        for row in result.rows:
            value, *medians = astuple(row)
            cell = sig4(value) if float(sig4(value)) == value else repr(value)  # float(cell) == value
            fh.write(",".join([cell] + [repr(m) for m in medians]) + "\n")
    return path
