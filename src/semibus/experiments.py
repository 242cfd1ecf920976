"""Monte Carlo replication runner, percentile statistics, sensitivity
sweeps, and plot-ready report files.

Each replication draws one demand realization and runs it through the
fixed route and its semi-on-demand replacement (common random numbers),
so per-replication cost differences are paired.  Passenger costs
aggregate the warm-up counting window only; operator costs accrue for
every departure in the horizon.  Replication r of a run seeded with s
uses the independent substream SeedSequence(s, spawn_key=(r,)), so
results are identical for any worker count and execution order.  A run or
sweep on N workers splits its replications into at most N contiguous
ranges; the caller runs the first of every point, and one forked process
each of the others (_runs).  A process runs its range BLOCK at a time:
their draws lie end to end in one block (simulator._sample_block), each
from its own generator; each draw runs its own trip loops, and one fold
sums every replication of the block into a column of floats
(_window_metrics), which stays a column of one table, both modes' rows
stacked, up to the summary.
"""
from __future__ import annotations

import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import accumulate, chain
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .model import MetricSummary, Scenario, ScenarioError, ScenarioStats, require_valid
from .model import scenario_from_dict, scenario_to_dict
from .simulator import _amsod_columns, _amsod_drives, _fixed_columns, _sample_block

MODES = ("fixed", "amsod")

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

BLOCK = 16  # consecutive replications whose array work runs together


def _summaries(table: np.ndarray) -> list:
    """summarize of each row of a 2-D table, by one percentile call."""
    return [MetricSummary(*map(float, row)) for row in np.percentile(table, [50.0, 2.5, 97.5], axis=1).T]  # (median, p2_5, p97_5)


def summarize(values: Sequence[float]) -> MetricSummary:
    """Median and the empirical 2.5/97.5 percentiles (linear interpolation
    of order statistics)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty input")
    return _summaries(arr.reshape(1, -1))[0]


def _window_metrics(scenario: Scenario, c_o: np.ndarray, cuts: Sequence[int], passengers) -> np.ndarray:
    """The reported metrics of one mode, a (len(METRICS), reps) array with
    a column per replication of a block, from a column function's first
    three items: each trip's operator cost (a row per replication), the
    trip cuts, and the passengers' (id, t_k, wait, ivtt, access) columns in
    replication, trip, then boarding order.

    Averages cover passengers whose request time falls in the warm-up
    counting window and who were actually served; operator cost covers
    every departure.  Each sum is a weighted np.bincount, which adds a
    replication's counted waits, in-vehicle times or accesses, or its
    trips' operator costs onto +0.0 in input order (trip, then boarding
    order) as a += loop from 0.0 does; reported numbers depend on it
    (np.sum adds pairwise; builtin sum compensates rounding from Python 3.12).
    """
    _, t_k, wait, ivtt, access = passengers
    cost, svc = scenario.cost, scenario.service
    w0, w1 = svc.warmup_window
    reps, trips = c_o.shape
    trip_rep = np.arange(reps).repeat(trips)  # the replication of each trip
    rows = np.flatnonzero((w0 <= t_k) & (t_k < w1))
    rep = trip_rep[np.searchsorted(cuts, rows, side="right") - 1]  # the replication of each counted row
    n = np.bincount(rep, minlength=reps)
    wait_sum, ivtt_sum, access_sum = (np.bincount(rep, column[rows], reps) for column in (wait, ivtt, access))
    c_o = np.bincount(trip_rep, c_o.ravel(), reps)
    c_a = cost.gamma_a * cost.vot * access_sum
    c_w = cost.gamma_w * cost.vot * wait_sum
    c_r = cost.gamma_r * cost.vot * ivtt_sum
    counted = np.maximum(n, 1)  # the sums are 0.0 where n is 0
    return np.array([60.0 * wait_sum / counted, 60.0 * ivtt_sum / counted, c_a, c_w, c_r, c_o, c_a + c_w + c_r + c_o, n])


def replication_metrics(scenario: Scenario, requests, logs) -> dict:
    """Aggregate one replication's trip logs to the reported metrics by
    run_scenario's own fold, from the columns of the logs' rows.  requests
    is unused (each row carries its t_k) and kept for positional callers."""
    rows = np.fromiter(chain.from_iterable(chain.from_iterable(log.rows for log in logs)), float).reshape(-1, 5)
    cuts = [0, *accumulate(len(log.rows) for log in logs)]
    metrics = _window_metrics(scenario, np.array([[log.c_o for log in logs]], float), cuts, rows.T)
    return dict(zip(METRICS, metrics[:, 0].tolist()))


@dataclass(frozen=True)
class ScenarioRun:
    scenario_name: str
    modes: tuple  # MODES
    stats: tuple  # ScenarioStats per mode, same order
    delta_tc: MetricSummary  # amsod minus fixed, per replication
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
    items = seed if isinstance(seed, (list, tuple)) else (seed,)
    if not items or not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool) and s >= 0 for s in items):
        raise ValueError(f"seed must be a non-negative integer or a nonempty list or tuple of them, got {seed!r}")
    return tuple(int(s) for s in items)


def replication_rng(entropy: tuple, rep: int) -> np.random.Generator:
    """The generator of replication rep in a run seeded with entropy."""
    return np.random.default_rng(np.random.SeedSequence(entropy=list(entropy), spawn_key=(rep,)))


def _replications(job) -> np.ndarray:
    """The metrics of each replication in a range, a column each (fixed
    route's METRICS rows over the on-demand ones), drawn, run and folded
    BLOCK at a time (simulator._sample_block); each replication keeps its
    own generator and trip loops."""
    fixed, amsod, entropy, reps = job
    blocks = []
    for lo in range(reps.start, reps.stop, BLOCK):
        rngs = [replication_rng(entropy, r) for r in range(lo, min(lo + BLOCK, reps.stop))]
        demand, draws = _sample_block(fixed.grid, fixed.service, rngs)
        per_fixed = _window_metrics(fixed, *_fixed_columns(fixed, demand, draws)[:3])
        per_amsod = _window_metrics(amsod, *_amsod_columns(amsod, _amsod_drives(amsod, demand, draws)))
        blocks.append(np.vstack([per_fixed, per_amsod]))
    return np.hstack(blocks)


def _check_workers(workers) -> None:
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")


def run_scenario(scenario: Scenario, replications: Optional[int] = None, seed=None, workers: int = 1) -> ScenarioRun:
    """Paired Monte Carlo of the scenario's fixed-route bus against its
    semi-on-demand replacement on common demand draws.

    replications and seed default to the scenario's own.  workers > 1 splits
    the replications into contiguous ranges of ceil(replications / workers):
    this process runs the first, and one forked process each of the others,
    forked after every argument check and joined before this returns or raises.
    """
    J = scenario.replications if replications is None else replications
    return _runs([(require_valid(scenario), scenario, ())], J, scenario.seed if seed is None else seed, workers)[0]


def _range_job(job) -> list:
    """_replications of every point of one range."""
    return [_replications(point) for point in job]


def _runs(points, J, seed, workers) -> list:
    """The ScenarioRun of each point (fixed, amsod, key) of validated
    scenarios, seeded with seed's entropy + key; amsod is the on-demand side
    (a capacity sweep's point differs from fixed only in capacity; demand is
    drawn from fixed).  One map sends ranges 1.. of every point to a process
    each before this process runs range 0 of every point."""
    if isinstance(J, bool) or not isinstance(J, numbers.Real) or not float(J).is_integer() or J < 1:
        raise ValueError(f"replications must be an integer >= 1, got {J!r}")
    J = int(J)
    entropy = _entropy(seed)
    _check_workers(workers)

    points = [(fixed, amsod, entropy + key) for fixed, amsod, key in points]
    step = -(-J // workers)  # one contiguous range of replications per process; map keeps their order
    jobs = [[(*point, range(lo, min(lo + step, J))) for point in points] for lo in range(0, J, step)]
    if len(jobs) == 1:
        tables = [_range_job(jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(jobs) - 1) as pool:
            rest = pool.map(_range_job, jobs[1:])  # submitted first, so the processes start while this one runs
            tables = [_range_job(jobs[0]), *rest]
    tables = map(np.hstack, zip(*tables))  # each point's ranges joined in order
    return [_scenario_run(fixed.name, point_entropy, table) for (fixed, _, point_entropy), table in zip(points, tables)]


def _scenario_run(name: str, entropy: tuple, table: np.ndarray) -> ScenarioRun:
    """The ScenarioRun of one point's table, a column per replication."""
    k, g = len(METRICS), METRICS.index("generalized_cost")
    delta = table[k + g] - table[g]  # amsod minus fixed
    *summaries, delta_tc = _summaries(np.vstack([table, delta]))
    stats = tuple(ScenarioStats(metrics=dict(zip(METRICS, summaries[i * k :]))) for i in (0, 1))
    return ScenarioRun(
        scenario_name=name,
        modes=MODES,
        stats=stats,
        delta_tc=delta_tc,
        delta_tc_values=tuple(delta.tolist()),
        replications=table.shape[1],
        seed=entropy,
    )


@dataclass(frozen=True)
class SweepSpec:
    dimension: str  # "capacity" | "lambda"
    values: tuple
    replications: int
    scenario: Scenario
    points: tuple = field(init=False, repr=False, compare=False)  # scenario_at of each value

    def __post_init__(self):
        values = tuple(self.values)
        if self.dimension not in ("capacity", "lambda"):
            raise ScenarioError(f"unknown sweep dimension {self.dimension!r}")
        if not values:
            raise ScenarioError("sweep values must be nonempty")
        require_valid(self.scenario)
        object.__setattr__(self, "points", tuple(map(self.scenario_at, values)))  # checked as file values first
        object.__setattr__(self, "values", tuple(map(float, values)))
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ScenarioError("sweep values must be strictly increasing")

    def scenario_at(self, value: float) -> Scenario:
        """The scenario at one sweep value: the swept service key (the
        dimension's name in scenario files) and the run's replications are
        set, then parsed and validated as a scenario file would be."""
        data = scenario_to_dict(self.scenario)
        data["service"][self.dimension] = value
        data["run"]["replications"] = self.replications
        return scenario_from_dict(data)


@dataclass(frozen=True)
class SweepResult:
    dimension: str
    values: tuple  # the spec's values
    runs: tuple  # ScenarioRun per value, same order


def sweep(spec: SweepSpec, seed=None, workers: int = 1) -> SweepResult:
    """One paired run per value; value index i runs on substream
    (seed, i), fixed per index for reproducibility.

    A capacity sweep sizes the on-demand minibus only; the fixed-route
    baseline is the scenario itself.  A demand sweep moves both services
    together.

    workers > 1 runs every value in one dispatch, split and joined as in
    run_scenario: each process runs its range of every value.
    """
    base = spec.scenario
    points = [(base if spec.dimension == "capacity" else swept, swept, (idx,)) for idx, swept in enumerate(spec.points)]
    runs = _runs(points, spec.replications, base.seed if seed is None else seed, workers)
    return SweepResult(dimension=spec.dimension, values=spec.values, runs=tuple(runs))


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
    return np.histogram(arr, bins=HIST_BINS, range=(lo, hi))


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


def write_csv(path: Path, rows) -> Path:
    """Write rows of pre-formatted cells as comma-joined lines to path,
    creating its directory; returns path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(",".join(row) + "\n" for row in rows), newline="")
    return path


def emit_report(run: ScenarioRun, out_dir: Union[str, Path], fmt: str = "csv") -> list:
    """Write the scenario report; returns the written paths.

    csv: metric table (one row per metric, cells "median (p2.5 - p97.5)"),
    the cost-difference histogram bins, and the full-precision JSON.
    json: the JSON only.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}; expected 'csv' or 'json'")
    if not run.delta_tc_values:
        raise ValueError("empty input")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = run.scenario_name

    json_path = out_dir / f"{name}_stats.json"
    json_path.write_text(json.dumps(run_to_dict(run), indent=2, sort_keys=True) + "\n")
    written = [json_path]
    if fmt == "json":
        return written

    table = [["metric", *run.modes]]
    for row in TABLE_ROWS:
        if row == "generalized_cost_diff":
            cells = [_cell(run.delta_tc), ""]
        else:
            cells = [_cell(stats.metrics[row]) for stats in run.stats]
        table.append([row] + [f'"{c}"' if c else "" for c in cells])
    written.append(write_csv(out_dir / f"{name}_table.csv", table))

    counts, edges = delta_tc_histogram(run.delta_tc_values)
    hist = [[repr(float(edges[i])), repr(float(edges[i + 1])), str(int(c))] for i, c in enumerate(counts)]
    written.append(write_csv(out_dir / f"{name}_delta_tc_hist.csv", [["bin_left", "bin_right", "count"], *hist]))
    return written


def emit_sweep(result: SweepResult, scenario_name: str, out_dir: Union[str, Path]) -> Path:
    """Write <scenario>_<dimension>_sweep.csv: per value, the run's median
    cost difference and each mode's median wait and ride, at full precision."""
    rows = [["value", "delta_tc_median", "fixed_wait_min", "fixed_ivtt_min", "amsod_wait_min", "amsod_ivtt_min"]]
    for value, run in zip(result.values, result.runs):
        cell = sig4(value) if float(sig4(value)) == value else repr(value)  # float(cell) == value
        summaries = [run.delta_tc] + [stats.metrics[m] for stats in (run.fixed, run.amsod) for m in METRICS[:2]]
        rows.append([cell, *(repr(s.median) for s in summaries)])
    return write_csv(Path(out_dir) / f"{scenario_name}_{result.dimension}_sweep.csv", rows)
