"""Monte Carlo replication runner, percentile statistics, sensitivity
sweeps, and plot-ready report files.

Each replication draws one demand realization and runs it through the
fixed route and its semi-on-demand replacement (common random numbers),
so per-replication cost differences are paired.  Passenger costs
aggregate the warm-up counting window only; operator costs accrue for
every departure in the horizon.  Replication r of a run seeded with s
uses the independent substream SeedSequence(s, spawn_key=(r,)), so
results are identical for any worker count and execution order.
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, field, fields
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .model import MetricSummary, Scenario, ScenarioError, ScenarioStats, require_valid
from .model import scenario_from_dict, scenario_to_dict
from .simulator import _amsod_columns, _amsod_drives, _fixed_columns, sample_demand

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


def _window_metrics(scenario: Scenario, c_o, passengers) -> dict:
    """Aggregate one replication of one mode to the reported metrics from
    each trip's operator cost and the passengers' (id, t_k, wait, ivtt,
    access) columns in trip, then boarding order.

    Averages cover passengers whose request time falls in the warm-up
    counting window and who were actually served; operator cost covers
    every departure.  The three passenger sums are one np.cumsum along the
    stacked counted columns, each still left to right in trip, then boarding
    order, as += runs them (np.sum adds pairwise, and the builtin sum
    compensates rounding from Python 3.12 on); reported numbers depend on it.
    """
    _, t_k, wait, ivtt, access = passengers
    cost, svc = scenario.cost, scenario.service
    w0, w1 = svc.warmup_window
    counted = (w0 <= t_k) & (t_k < w1)
    n = int(np.count_nonzero(counted))
    wait_sum, ivtt_sum, access_sum = np.cumsum(np.array((wait[counted], ivtt[counted], access[counted]), float), axis=1)[:, -1].tolist() if n else (0.0,) * 3
    c_o = float(np.cumsum(c_o)[-1]) if len(c_o) else 0.0
    c_a = cost.gamma_a * cost.vot * access_sum
    c_w = cost.gamma_w * cost.vot * wait_sum
    c_r = cost.gamma_r * cost.vot * ivtt_sum
    return {
        "avg_wait_min": 60.0 * wait_sum / n if n else 0.0,
        "avg_ivtt_min": 60.0 * ivtt_sum / n if n else 0.0,
        "access_cost": c_a,
        "waiting_cost": c_w,
        "riding_cost": c_r,
        "operator_cost": c_o,
        "generalized_cost": c_a + c_w + c_r + c_o,
        "passengers": float(n),
    }


def replication_metrics(scenario: Scenario, requests, logs) -> dict:
    """Aggregate one replication's trip logs to the reported metrics by
    run_scenario's own fold, from the columns of the logs' rows.  requests
    is unused (each row carries its t_k) and kept for positional callers."""
    rows = np.fromiter(chain.from_iterable(chain.from_iterable(log.rows for log in logs)), float).reshape(-1, 5)
    return _window_metrics(scenario, np.array([log.c_o for log in logs], float), rows.T)


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


def _one_replication(args):
    fixed, amsod, entropy, rep = args
    demand = sample_demand(fixed.grid, fixed.service, replication_rng(entropy, rep))
    fixed_c_o, _, fixed_passengers, _ = _fixed_columns(fixed, demand)
    amsod_c_o, _, amsod_passengers, _ = _amsod_columns(amsod, _amsod_drives(amsod, demand))
    return _window_metrics(fixed, fixed_c_o, fixed_passengers), _window_metrics(amsod, amsod_c_o, amsod_passengers)


def _check_workers(workers) -> None:
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")


def _pool(workers: int, replications) -> ProcessPoolExecutor:
    """A pool of no more processes than there are replications to run."""
    return ProcessPoolExecutor(max_workers=min(workers, int(replications)))


def run_scenario(scenario: Scenario, replications: Optional[int] = None, seed=None, workers: int = 1) -> ScenarioRun:
    """Paired Monte Carlo of the scenario's fixed-route bus against its
    semi-on-demand replacement on common demand draws.

    replications and seed default to the scenario's own.  workers > 1 runs
    the replications on a pool of min(workers, replications) processes,
    one contiguous block each, opened after every argument check and
    joined before this returns or raises.
    """
    return _run_scenario(require_valid(scenario), scenario, replications, seed, workers, None)


def _run_scenario(fixed, amsod, replications, seed, workers, pool) -> ScenarioRun:
    """run_scenario on validated scenarios, with the on-demand side on amsod
    (a capacity sweep's point, which differs from fixed only in capacity;
    demand is drawn from fixed), on pool when given (sweep shares one),
    else on its own."""
    J = fixed.replications if replications is None else replications
    if isinstance(J, bool) or not float(J).is_integer() or J < 1:
        raise ValueError(f"replications must be an integer >= 1, got {J!r}")
    J = int(J)
    entropy = _entropy(fixed.seed if seed is None else seed)
    _check_workers(workers)

    jobs = [(fixed, amsod, entropy, rep) for rep in range(J)]
    if workers == 1:
        per_rep = [_one_replication(job) for job in jobs]
    else:  # one block of jobs per worker; map keeps job order
        with _pool(workers, J) if pool is None else nullcontext(pool) as pool:
            per_rep = list(pool.map(_one_replication, jobs, chunksize=-(-J // workers)))
    delta = [a["generalized_cost"] - f["generalized_cost"] for f, a in per_rep]
    *summaries, delta_tc = _summaries(np.array([[p[k][m] for p in per_rep] for k in (0, 1) for m in METRICS] + [delta]))
    stats = tuple(ScenarioStats(metrics=dict(zip(METRICS, summaries[k * len(METRICS) :]))) for k in (0, 1))
    return ScenarioRun(
        scenario_name=fixed.name,
        modes=MODES,
        stats=stats,
        delta_tc=delta_tc,
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
    points: tuple = field(init=False, repr=False, compare=False)  # scenario_at of each value

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.dimension not in ("capacity", "lambda"):
            raise ScenarioError(f"unknown sweep dimension {self.dimension!r}")
        if not self.values:
            raise ScenarioError("sweep values must be nonempty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ScenarioError("sweep values must be strictly increasing")
        require_valid(self.scenario)
        object.__setattr__(self, "points", tuple(self.scenario_at(v) for v in self.values))

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
    """One paired run per value; value index i runs on substream
    (seed, i), fixed per index for reproducibility.

    A capacity sweep sizes the on-demand minibus only; the fixed-route
    baseline is the scenario itself.  A demand sweep moves both services
    together.

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
        for idx, (value, swept) in enumerate(zip(spec.values, spec.points)):
            fixed = base if spec.dimension == "capacity" else swept
            run = _run_scenario(fixed, swept, spec.replications, entropy + (idx,), workers, pool)
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
    written = []

    json_path = out_dir / f"{name}_stats.json"
    json_path.write_text(json.dumps(run_to_dict(run), indent=2, sort_keys=True) + "\n")
    written.append(json_path)
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
    hist = [[repr(edges[i]), repr(edges[i + 1]), str(int(c))] for i, c in enumerate(counts)]
    written.append(write_csv(out_dir / f"{name}_delta_tc_hist.csv", [["bin_left", "bin_right", "count"], *hist]))
    return written


def emit_sweep(result: SweepResult, scenario_name: str, out_dir: Union[str, Path]) -> Path:
    rows = [[f.name for f in fields(SweepRow)]]
    for value, *medians in map(astuple, result.rows):
        cell = sig4(value) if float(sig4(value)) == value else repr(value)  # float(cell) == value
        rows.append([cell] + [repr(m) for m in medians])
    return write_csv(Path(out_dir) / f"{scenario_name}_{result.dimension}_sweep.csv", rows)
