import json
import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

import oracles as O
from semibus import experiments as E
from semibus import simulator
from semibus.model import MetricSummary, ScenarioError
from semibus.simulator import sample_requests, simulate_requests


def test_summarize_simple_cases():
    assert E.summarize([1.0, 2.0, 3.0]).median == 2.0
    const = E.summarize([4.2] * 50)
    assert (const.median, const.p2_5, const.p97_5) == (4.2, 4.2, 4.2)
    with pytest.raises(ValueError):
        E.summarize([])


def test_summarize_normal_quantiles():
    rng = np.random.default_rng(8)
    s = E.summarize(rng.standard_normal(10_000))
    assert s.p2_5 == approx(-1.96, abs=0.08)
    assert s.p97_5 == approx(1.96, abs=0.08)
    assert s.p2_5 <= s.median <= s.p97_5


def test_summary_ordering_invariant(model1):
    run = E.run_scenario(model1, replications=40, seed=2)
    for stats in run.stats:
        for summary in stats.metrics.values():
            assert summary.p2_5 <= summary.median <= summary.p97_5


def test_paired_modes_share_requests(model1):
    # per-replication metrics must match a manual rerun on the same substream
    run = E.run_scenario(model1, replications=5, seed=9)
    ss = np.random.SeedSequence(entropy=[9], spawn_key=(0,))
    reqs = sample_requests(model1.grid, model1.service, np.random.default_rng(ss))
    logs_f = simulate_requests(model1, "fixed", reqs)
    logs_a = simulate_requests(model1, "amsod", reqs)
    mf = E.replication_metrics(model1, reqs, logs_f)
    ma = E.replication_metrics(model1, reqs, logs_a)
    assert run.delta_tc_values[0] == ma["generalized_cost"] - mf["generalized_cost"]


def test_worker_count_does_not_change_results(model1):
    a = E.run_scenario(model1, replications=24, seed=5, workers=1)
    b = E.run_scenario(model1, replications=24, seed=5, workers=3)
    assert a.delta_tc_values == b.delta_tc_values
    assert a.stats == b.stats


def test_single_value_sweep_matches_run_scenario(model1):
    spec = E.SweepSpec(dimension="lambda", values=(60.0,), replications=12, scenario=model1)
    swept = E.sweep(spec, seed=11)
    direct = E.run_scenario(model1, replications=12, seed=(11, 0))
    assert swept.runs[0].delta_tc.median == direct.delta_tc.median
    assert swept.runs[0].stats == direct.stats


def test_sweep_validation(model1):
    with pytest.raises(ValueError, match="dimension"):
        E.SweepSpec(dimension="speed", values=(1.0,), replications=1, scenario=model1)
    with pytest.raises(ValueError, match="increasing"):
        E.SweepSpec(dimension="lambda", values=(2.0, 1.0), replications=1, scenario=model1)
    with pytest.raises(ValueError, match="nonempty"):
        E.SweepSpec(dimension="lambda", values=(), replications=1, scenario=model1)


@pytest.mark.parametrize(
    "dimension,value,field",
    [
        ("capacity", 15.5, "service.capacity"),
        ("capacity", 0.0, "service.capacity"),
        ("lambda", float("nan"), "service.lambda"),
        ("lambda", float("inf"), "service.lambda"),
        ("lambda", -5.0, "service.demand_rate"),
        ("capacity", True, "service.capacity"),
        ("capacity", "10", "service.capacity"),
    ],
)
def test_sweep_values_checked_like_scenario_file_values(model1, dimension, value, field):
    with pytest.raises(ScenarioError) as info:
        E.SweepSpec(dimension=dimension, values=(value,), replications=1, scenario=model1)
    assert [p.field for p in info.value.problems] == [field]


@pytest.fixture
def no_draw(monkeypatch):
    """Every replication raises AssertionError("a replication ran"): the
    patch is on the block draw that run_scenario makes."""

    def no_draw(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(E, "_sample_block", no_draw)


def test_capacity_sweep_refuses_an_invalid_base_before_any_replication(model1, no_draw):
    # a capacity sweep never re-parses the base's own capacity: the spec checks the base itself
    base = replace(model1, service=replace(model1.service, capacity=15.5))
    with pytest.raises(ScenarioError) as info:
        E.sweep(E.SweepSpec(dimension="capacity", values=(10.0, 20.0), replications=2, scenario=base))
    assert [p.field for p in info.value.problems] == ["service.capacity"]
    with pytest.raises(AssertionError, match="a replication ran"):  # control: a valid base reaches the patch
        E.sweep(E.SweepSpec(dimension="capacity", values=(10.0, 20.0), replications=2, scenario=model1))


def test_capacity_sweep_keeps_fixed_side(model1):
    spec = E.SweepSpec(dimension="capacity", values=(5.0, 30.0), replications=8, scenario=model1)
    swept = E.sweep(spec, seed=13)
    # the incumbent fixed service is untouched, so its wait stays headway-bound
    for run in swept.runs:
        assert run.fixed.metrics["avg_wait_min"].median < 10.0
    assert swept.runs[0].amsod.metrics["avg_wait_min"].median > swept.runs[1].amsod.metrics["avg_wait_min"].median


def test_capacity_sweep_point_pairs_plain_runs(model1):
    # fixed side: the base scenario; on-demand side: the point's scenario; same draws
    spec = E.SweepSpec(dimension="capacity", values=(5.0, 30.0), replications=8, scenario=model1)
    swept = E.sweep(spec, seed=13)
    for i, (value, run) in enumerate(zip(spec.values, swept.runs)):
        assert run.fixed == E.run_scenario(model1, 8, seed=(13, i)).fixed
        assert run.amsod == E.run_scenario(spec.scenario_at(value), 8, seed=(13, i)).amsod


@pytest.mark.parametrize("dimension, values", [("lambda", (10.0, 40.0)), ("capacity", (5.0, 30.0))])
def test_sweep_on_two_workers_equals_one(model1, dimension, values, tmp_path):
    # a capacity sweep sends its on-demand scenario through the shared pool apart from the fixed one
    spec = E.SweepSpec(dimension=dimension, values=values, replications=7, scenario=model1)
    one, two = (E.sweep(spec, seed=21, workers=w) for w in (1, 2))
    assert [E.run_to_dict(r) for r in two.runs] == [E.run_to_dict(r) for r in one.runs]
    assert E.emit_sweep(two, "two", tmp_path).read_bytes() == E.emit_sweep(one, "one", tmp_path).read_bytes()
    assert multiprocessing.active_children() == []


def _three_point_sweep(model1, replications):
    return E.SweepSpec(dimension="lambda", values=(10.0, 20.0, 40.0), replications=replications, scenario=model1)


def test_three_point_sweep_is_the_same_on_one_two_and_three_workers(model1):
    spec = _three_point_sweep(model1, 7)
    one, two, three = ([E.run_to_dict(r) for r in E.sweep(spec, seed=21, workers=w).runs] for w in (1, 2, 3))
    assert two == one and three == one
    assert multiprocessing.active_children() == []


def _job_ranges(job) -> list:
    """The range of replications of each point of a range job."""
    return [point[-1] for point in job]


class FakePool:
    """Stands in for ProcessPoolExecutor: records how it is made and used,
    maps lazily in this process and starts none.  log holds, in order, each
    map as ("map", its jobs' ranges) and each range job run, mapped or not,
    as ("run", its ranges) (the fake_pool fixture wraps the runs)."""

    made, log = [], []

    def __init__(self, max_workers):
        self.max_workers, self.ranges, self.shut = max_workers, [], False
        FakePool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()

    def map(self, fn, jobs, chunksize=1):
        assert chunksize == 1  # a job is a process's whole range of every point
        jobs = list(jobs)
        self.ranges.append([_job_ranges(job) for job in jobs])
        FakePool.log.append(("map", self.ranges[-1]))
        return map(fn, jobs)

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut = True


@pytest.fixture
def fake_pool(monkeypatch):
    FakePool.made, FakePool.log = [], []
    monkeypatch.setattr(E, "ProcessPoolExecutor", FakePool)
    range_job = E._range_job

    def logged_range_job(job):
        FakePool.log.append(("run", _job_ranges(job)))
        return range_job(job)

    monkeypatch.setattr(E, "_range_job", logged_range_job)
    return FakePool.made


def test_sweep_makes_one_pool_and_shuts_it_down(model1, fake_pool):
    E.sweep(_three_point_sweep(model1, 5), seed=3, workers=2)
    [pool] = fake_pool
    # ranges 0-3 and 3-5: one map sends range 3-5 of every point to one
    # process before this process runs range 0-3 of every point
    assert (pool.max_workers, pool.ranges, pool.shut) == (1, [[[range(3, 5)] * 3]], True)
    assert FakePool.log == [("map", [[range(3, 5)] * 3]), ("run", [range(0, 3)] * 3), ("run", [range(3, 5)] * 3)]


@pytest.mark.parametrize("replications", [2, 2.0])
def test_pool_holds_no_more_processes_than_replications(model1, fake_pool, replications):
    E.run_scenario(model1, replications=replications, seed=3, workers=64)
    spec = E.SweepSpec(dimension="lambda", values=(10.0, 20.0), replications=replications, scenario=model1)
    E.sweep(spec, seed=3, workers=64)
    assert [(type(p.max_workers), p.max_workers, p.ranges, p.shut) for p in fake_pool] == [
        (int, 1, [[[range(1, 2)]]], True),
        (int, 1, [[[range(1, 2)] * 2]], True),
    ]
    assert FakePool.log == [
        ("map", [[range(1, 2)]]),
        ("run", [range(0, 1)]),
        ("run", [range(1, 2)]),
        ("map", [[range(1, 2)] * 2]),
        ("run", [range(0, 1)] * 2),
        ("run", [range(1, 2)] * 2),
    ]


def test_pool_holds_one_process_per_range_after_the_first(model1, fake_pool):
    # 5 replications on 4 workers split into ranges of 2: 0-2, 2-4 and 4-5,
    # so two processes are forked, not four
    E.run_scenario(model1, replications=5, seed=3, workers=4)
    [pool] = fake_pool
    assert (pool.max_workers, pool.ranges, pool.shut) == (2, [[[range(2, 4)], [range(4, 5)]]], True)
    assert [event for event, _ in FakePool.log] == ["map", "run", "run", "run"]
    assert [ranges for _, ranges in FakePool.log[1:]] == [[range(0, 2)], [range(2, 4)], [range(4, 5)]]


def test_one_range_starts_no_process(model1, fake_pool):
    E.run_scenario(model1, replications=1, seed=3, workers=4)
    E.sweep(_three_point_sweep(model1, 1), seed=3, workers=4)
    assert fake_pool == []
    assert FakePool.log == [("run", [range(0, 1)]), ("run", [range(0, 1)] * 3)]


def test_ranges_of_a_sweep_tile_its_replications_in_order(model1, fake_pool, monkeypatch):
    # the table of a range is all zeros: only the split is under test
    monkeypatch.setattr(E, "_replications", lambda job: np.zeros((2 * len(E.METRICS), len(job[-1]))))
    for J in range(1, 41):
        spec = _three_point_sweep(model1, J)
        for workers in range(1, 6):
            FakePool.made.clear()
            FakePool.log.clear()
            result = E.sweep(spec, seed=3, workers=workers)
            assert [run.replications for run in result.runs] == [J] * 3
            mapped = [job for pool in FakePool.made for ranges in pool.ranges for job in ranges]
            events = [("map", mapped)] if mapped else []
            caller = [range(0, -(-J // workers))] * 3  # ceil(J / workers)
            assert FakePool.log == events + [("run", caller)] + [("run", job) for job in mapped], (J, workers)
            assert [(p.max_workers, p.shut) for p in FakePool.made] == ([(len(mapped), True)] if mapped else [])
            assert 1 + len(mapped) <= min(workers, J)  # this process runs a range too
            for point in range(3):
                ranges = [caller[point]] + [job[point] for job in mapped]
                assert all(ranges) and [r for rng in ranges for r in rng] == list(range(J)), (J, workers)
            assert all(job == [job[0]] * 3 for job in mapped)


@pytest.mark.parametrize("workers", [0, 2.5, True])
def test_sweep_refuses_bad_workers_before_any_pool(model1, fake_pool, workers):
    spec = E.SweepSpec(dimension="lambda", values=(10.0,), replications=2, scenario=model1)
    with pytest.raises(ValueError, match="workers") as info:
        E.sweep(spec, workers=workers)
    with pytest.raises(ValueError) as direct:
        E.run_scenario(model1, replications=2, workers=workers)
    assert str(info.value) == str(direct.value)
    assert fake_pool == []


@pytest.mark.parametrize("where", ["worker", "parent", "fold"])
def test_no_process_outlives_a_sweep_that_raises(model1, monkeypatch, where):
    # replications 2-3 of both points run on one forked process and 0-1 in
    # this one.  Point 1 raises in the forked process only (it forks from
    # this one, so it sees the patched block draw; its pid tells it apart),
    # in this process's own range while the forked one runs, or in the fold
    # after the pool is joined.  Each raises its own error, so the match
    # shows that the patch was hit.
    caller, draw, fold = os.getpid(), E._sample_block, E._scenario_run

    def sample_block(grid, service, rngs):
        if service.demand_rate == 40.0 and (os.getpid() != caller) == (where == "worker"):
            raise RuntimeError(f"draw failed in {where}")
        return draw(grid, service, rngs)

    def scenario_run(name, entropy, table):
        return fold(name, entropy, table) if entropy[-1] == 0 else 1 / 0

    if where == "fold":
        monkeypatch.setattr(E, "_scenario_run", scenario_run)
    else:
        monkeypatch.setattr(E, "_sample_block", sample_block)
    spec = E.SweepSpec(dimension="lambda", values=(10.0, 40.0), replications=4, scenario=model1)
    raises = pytest.raises(ZeroDivisionError) if where == "fold" else pytest.raises(RuntimeError, match=f"in {where}")
    with raises:
        E.sweep(spec, seed=5, workers=2)
    assert multiprocessing.active_children() == []


def test_emit_sweep_values_round_trip(tmp_path, model1):
    values = (10.0, 0.1, 1000.1, 1000.2, 12345.0)
    run = E.run_scenario(model1, replications=2, seed=1)
    path = E.emit_sweep(E.SweepResult("lambda", values, (run,) * len(values)), "hand", tmp_path)
    cells = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
    assert [float(c) for c in cells] == list(values)
    assert cells[:2] == ["10", "0.1"]  # sig4's text where it round-trips


def test_sig4_names_non_finite_values():
    assert [E.sig4(v) for v in (math.inf, -math.inf, math.nan)] == ["inf", "-inf", "nan"]


def test_histogram_of_constant_values_spans_one_unit():
    counts, edges = E.delta_tc_histogram([3.0] * 7)
    assert (edges[0], edges[-1]) == (2.5, 3.5)
    assert (len(counts), int(counts.sum())) == (E.HIST_BINS, 7)


def test_emit_report_files(tmp_path, model1):
    run = E.run_scenario(model1, replications=20, seed=7)
    paths = E.emit_report(run, tmp_path)
    names = {p.name for p in paths}
    assert names == {"model1_stats.json", "model1_table.csv", "model1_delta_tc_hist.csv"}

    table = (tmp_path / "model1_table.csv").read_text().strip().splitlines()
    assert table[0] == "metric,fixed,amsod"
    assert len(table) == 1 + 9  # nine metric rows
    assert table[8].startswith("generalized_cost_diff")

    hist = (tmp_path / "model1_delta_tc_hist.csv").read_text().strip().splitlines()
    assert hist[0] == "bin_left,bin_right,count"
    assert len(hist) == 1 + E.HIST_BINS
    assert sum(int(line.split(",")[2]) for line in hist[1:]) <= 20

    data = json.loads((tmp_path / "model1_stats.json").read_text())
    for mode, stats in zip(run.modes, run.stats):
        for metric, summary in stats.metrics.items():
            blob = data["stats"][mode][metric]
            assert blob == {"median": summary.median, "p2_5": summary.p2_5, "p97_5": summary.p97_5}
    assert data["delta_tc"]["median"] == run.delta_tc.median


def test_emit_report_rejects_empty():
    run = E.ScenarioRun(
        scenario_name="x",
        modes=("fixed", "amsod"),
        stats=(),
        delta_tc=MetricSummary(0.0, 0.0, 0.0),
        delta_tc_values=(),
        replications=0,
        seed=(0,),
    )
    with pytest.raises(ValueError, match="empty"):
        E.emit_report(run, ".")


@pytest.mark.parametrize("fmt", ["JSON", "txt", ""])
def test_emit_report_refuses_unknown_format_before_writing(tmp_path, model1, fmt):
    run = E.run_scenario(model1, replications=3, seed=1)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=repr(fmt)):
        E.emit_report(run, out, fmt=fmt)
    assert not out.exists()


def test_emit_report_byte_identical(tmp_path, model1):
    run = E.run_scenario(model1, replications=10, seed=19)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        E.emit_report(run, d)
    for name in ("model1_stats.json", "model1_table.csv", "model1_delta_tc_hist.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


@pytest.mark.parametrize("replications", [2.5, 0, -1, float("nan"), True, "3"])
def test_non_integer_or_small_replication_count_refused(model1, replications):
    with pytest.raises(ValueError, match="replications"):
        E.run_scenario(model1, replications=replications, seed=1)


@pytest.mark.parametrize(
    "kwargs, name",
    [  # explicit ids: adding or removing a case renames no other
        pytest.param({"seed": 1.5}, "seed", id="kwargs0-seed"),
        pytest.param({"seed": -1}, "seed", id="kwargs1-seed"),
        pytest.param({"seed": (4, 2.5)}, "seed", id="kwargs2-seed"),
        pytest.param({"seed": b"1"}, "seed", id="kwargs3-seed"),
        pytest.param({"seed": {1: 2}}, "seed", id="kwargs4-seed"),
        pytest.param({"seed": ()}, "seed", id="kwargs5-seed"),
        pytest.param({"workers": 2.5}, "workers", id="kwargs6-workers"),
        pytest.param({"workers": 0}, "workers", id="kwargs7-workers"),
        pytest.param({"workers": -1}, "workers", id="kwargs8-workers"),
        pytest.param({"workers": True}, "workers", id="kwargs9-workers"),
    ],
)
def test_bad_run_arguments_refused_before_any_replication(model1, no_draw, kwargs, name):
    with pytest.raises(ValueError, match=name):
        E.run_scenario(model1, replications=2, **kwargs)
    with pytest.raises(AssertionError, match="a replication ran"):  # control: good arguments reach the patch
        E.run_scenario(model1, replications=2)


def test_run_scenario_builds_no_request(model1, model2, monkeypatch):
    def no_request(*args):
        raise AssertionError("a Request was built")

    monkeypatch.setattr(simulator, "Request", no_request)
    zonal3 = replace(model1, service=replace(model1.service, n_zones=3, v_h=60.0))
    for scn in (model2, zonal3):
        assert len(E.run_scenario(scn, replications=3, seed=8).delta_tc_values) == 3
    with pytest.raises(AssertionError, match="Request"):
        sample_requests(model1.grid, model1.service, 8)


@pytest.mark.parametrize("replications", [3, 3.0, pytest.param(np.int64(3), id="replications2")])
def test_integer_valued_replication_count_runs(model1, replications):
    run = E.run_scenario(model1, replications=replications, seed=1)
    assert run.replications == 3 and len(run.delta_tc_values) == 3


def _consumer_variants(scn):
    svc = scn.service
    yield "shipped", scn
    yield "zonal3", replace(scn, service=replace(svc, n_parallel=1, n_zones=3, v_h=60.0))
    yield "parallel2", replace(scn, service=replace(svc, n_parallel=2, n_zones=1))
    yield "lam4x", replace(scn, service=replace(svc, demand_rate=4.0 * svc.demand_rate))


def _reference_metrics(scn, logs):
    """The oracle's tuple fold of TripLog rows."""
    return O.reference_window_metrics(scn, [(log.c_o, log.rows) for log in logs])


@pytest.mark.parametrize("name", ["model1", "model2", "cta126", "cta84"])
def test_summing_consumer_equals_logging_consumer(request, name):
    # run_scenario folds the departure loops' columns; replication_metrics
    # folds the rows kept in simulate_requests' TripLogs, and the oracle
    # folds those rows one tuple at a time.  All must give the same floats.
    for label, scn in _consumer_variants(request.getfixturevalue(name)):
        for s in range(20):
            run = E.run_scenario(scn, replications=1, seed=(s,))
            reqs = sample_requests(scn.grid, scn.service, E.replication_rng((s,), 0))
            logs = {mode: simulate_requests(scn, mode, reqs) for mode in run.modes}
            ref = {mode: E.replication_metrics(scn, reqs, logs[mode]) for mode in run.modes}
            for mode in run.modes:
                got = {m: run.stats_for(mode).metrics[m].median for m in E.METRICS}
                assert got == ref[mode], f"{label} seed {s} {mode}"
                assert got == _reference_metrics(scn, logs[mode]), f"{label} seed {s} {mode}"
            assert run.delta_tc_values == (ref["amsod"]["generalized_cost"] - ref["fixed"]["generalized_cost"],)


@pytest.mark.parametrize("reps, big", [(1, False), (2, False), (16, False), (3, True)], ids=["1", "2", "16", "3-big"])
def test_block_fold_equals_the_tuple_fold_per_replication(model1, reps, big):
    # hand-made blocks of 5 trips per replication: replication 0 counts no
    # passenger (its request times lie outside the window, w1 included),
    # 1 counts one whose wait is -0.0, and the others count waits and
    # accesses of -0.0 and +0.0 among others; each replication's metrics
    # must equal the oracle's fold of its own rows, signs of zero included.
    # In the big case replication 2 boards 150 a trip, so that it counts
    # enough passengers for a pairwise sum to differ from the += loop.
    rng = np.random.default_rng(reps)
    w0, w1 = model1.service.warmup_window
    c_o = rng.uniform(5.0, 15.0, (reps, 5))
    per_rep = []
    for r in range(reps):
        trips = []
        for j in range(5):
            k = 150 if big and r == 2 else int(rng.integers(1, 6))
            t_k = rng.choice([0.5, w1, 2.5], k) if r == 0 else rng.uniform(0.0, 3.0, k)
            wait, access = np.where(rng.random((2, k)) < 0.5, rng.choice([-0.0, 0.0], (2, k)), rng.uniform(0.0, 0.3, (2, k)))
            trips.append(list(zip(range(k), t_k.tolist(), wait.tolist(), rng.uniform(0.0, 0.5, k).tolist(), access.tolist())))
        if r == 1:
            trips = [[], [(0, (w0 + w1) / 2.0, -0.0, 0.25, 0.0)], [], [], []]
        per_rep.append(trips)
    block = [trip for trips in per_rep for trip in trips]
    cuts = [0, *np.cumsum([len(trip) for trip in block]).tolist()]
    ids, *columns = zip(*(row for trip in block for row in trip))
    got = [dict(zip(E.METRICS, column)) for column in E._window_metrics(model1, c_o, cuts, (np.array(ids), *map(np.array, columns))).T.tolist()]
    assert len(got) == reps
    for r, trips in enumerate(per_rep):
        assert repr(got[r]) == repr(O.reference_window_metrics(model1, list(zip(c_o[r].tolist(), trips)))), r
    assert got[0]["passengers"] == 0.0 and repr(got[0]["avg_wait_min"]) == "0.0"
    assert reps == 1 or (got[1]["passengers"] == 1.0 and repr(got[1]["waiting_cost"]) == "0.0")
    if big:
        waits = [wait for trip in per_rep[2] for _, t_k, wait, _, _ in trip if w0 <= t_k < w1]
        loop = 0.0
        for wait in waits:
            loop += wait
        assert len(waits) == got[2]["passengers"] >= 200 and np.sum(waits) != loop


def _block_case(request, label):
    """model1's consumer variants; model1 at 0.5/h, where some draws are
    empty; cta126 at 90/h, where some draws overflow the fixed route."""
    model1 = request.getfixturevalue("model1")
    if label == "model1-0.5/h":
        return replace(model1, service=replace(model1.service, demand_rate=0.5))
    if label == "cta126-90/h":
        cta126 = request.getfixturevalue("cta126")
        return replace(cta126, service=replace(cta126.service, demand_rate=90.0))
    return dict(_consumer_variants(model1))[label]


@pytest.mark.parametrize("label", ["shipped", "zonal3", "parallel2", "lam4x", "model1-0.5/h", "cta126-90/h"])
def test_blocks_equal_a_replay_draw_by_draw(request, label):
    # J crosses two block boundaries and ends on a short block; on 3
    # workers each range (12, 12 and 11 replications) is shorter than a
    # block.  Every replication must equal its draw made and run alone
    # through trip_records.
    scn, J, seed = _block_case(request, label), 2 * E.BLOCK + 3, (3,)
    reqs = [sample_requests(scn.grid, scn.service, E.replication_rng(seed, r)) for r in range(J)]
    logs = [{mode: simulate_requests(scn, mode, q) for mode in E.MODES} for q in reqs]
    replay = [tuple(E.replication_metrics(scn, q, rep_logs[mode]) for mode in E.MODES) for q, rep_logs in zip(reqs, logs)]
    assert E._replications((scn, scn, seed, range(J))).tolist() == [[p[k][m] for p in replay] for k in (0, 1) for m in E.METRICS]
    for workers in (1, 3):
        run = E.run_scenario(scn, replications=J, seed=seed, workers=workers)
        assert run.delta_tc_values == tuple(a["generalized_cost"] - f["generalized_cost"] for f, a in replay)
        for k, mode in enumerate(E.MODES):
            for m in E.METRICS:
                assert run.stats_for(mode).metrics[m] == E.summarize([p[k][m] for p in replay]), f"workers={workers} {mode} {m}"
    flags = {"model1-0.5/h": [not q for q in reqs], "cta126-90/h": [any(log.spilled_ids for log in rep_logs["fixed"]) for rep_logs in logs]}
    if label in flags:  # the case holds both kinds of draw within one block
        blocks = [set(flags[label][lo : lo + E.BLOCK]) for lo in range(0, J, E.BLOCK)]
        assert {True, False} in blocks


PASSENGER_METRICS = ("avg_wait_min", "avg_ivtt_min", "access_cost", "waiting_cost", "riding_cost", "passengers")


@pytest.mark.parametrize("zonal", [False, True], ids=["model1", "model1-zonal3"])
def test_draws_without_counted_passengers_cost_only_the_buses(model1, zonal):
    # at lambda 0 no draw has a request; at 0.5/h some draws have requests
    # but none in the counting window.  Their passenger metrics are exactly
    # +0.0, and their cost is the operator's: the fixed route's as at the
    # shipped lambda (it does not depend on demand), on demand that of an
    # empty draw when the draw is empty (else the bus detours for requests
    # outside the window).
    svc = model1.service
    if zonal:
        svc = replace(svc, n_parallel=1, n_zones=3, v_h=60.0)
    shipped = E.run_scenario(replace(model1, service=svc), replications=3, seed=5)
    w0, w1 = svc.warmup_window
    hits = 0
    for lam in (0.0, 0.5):
        scn = replace(model1, service=replace(svc, demand_rate=lam))
        idle = {mode: _reference_metrics(scn, simulate_requests(scn, mode, [])) for mode in E.MODES}
        assert idle["fixed"]["operator_cost"] == shipped.fixed.metrics["operator_cost"].median
        if not zonal:  # the on-demand bus runs the fixed route's km
            assert idle["amsod"]["operator_cost"] == idle["fixed"]["operator_cost"]
        for s in range(30):
            t_k = simulator.sample_demand(scn.grid, scn.service, E.replication_rng((s,), 0)).t_k
            if ((w0 <= t_k) & (t_k < w1)).any():
                continue
            hits += len(t_k) > 0
            run = E.run_scenario(scn, replications=1, seed=(s,))
            for mode in E.MODES:
                got = {m: run.stats_for(mode).metrics[m].median for m in E.METRICS}
                assert [repr(got[m]) for m in PASSENGER_METRICS] == ["0.0"] * len(PASSENGER_METRICS), f"lambda {lam} seed {s} {mode}"
                assert got["operator_cost"] == got["generalized_cost"], f"lambda {lam} seed {s} {mode}"
                if mode == "fixed" or len(t_k) == 0:
                    assert got["operator_cost"] == idle[mode]["operator_cost"], f"lambda {lam} seed {s} {mode}"
    assert hits > 0  # some draw had requests, none of them counted


@pytest.mark.parametrize("J", [1, 2, 7, 40])
def test_batched_summaries_equal_summarize_per_column(model1, J):
    run = E.run_scenario(model1, replications=J, seed=11)
    assert run.delta_tc == E.summarize(run.delta_tc_values)
    columns = {mode: {m: [] for m in E.METRICS} for mode in E.MODES}
    for r in range(J):
        reqs = sample_requests(model1.grid, model1.service, E.replication_rng(run.seed, r))
        for mode in E.MODES:
            metrics = _reference_metrics(model1, simulate_requests(model1, mode, reqs))
            for m in E.METRICS:
                columns[mode][m].append(metrics[m])
    for mode in E.MODES:
        for m in E.METRICS:
            assert run.stats_for(mode).metrics[m] == E.summarize(columns[mode][m]), f"J={J} {mode} {m}"
    with pytest.raises(ValueError, match="empty input"):
        E.summarize([])
