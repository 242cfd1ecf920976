"""Acceptance gate: every reference-value reproduction and property bundle
this package commits to, one test per criterion, at fixed tolerances.

Stochastic checks use the bundled default seed and 10,000 replications.
Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion.
"""
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

import oracles as O
from semibus import analytic as A
from semibus import experiments as E
from semibus import simulator as S

J_FULL = 10_000
J_SWEEP = 1_000


@contextmanager
def criterion(n, label):
    try:
        yield
    except Exception:
        print(f"criterion {n:2d} [{label}]: FAIL")
        raise
    print(f"criterion {n:2d} [{label}]: PASS")


@pytest.fixture(scope="module")
def run_model1(model1):
    return E.run_scenario(model1, replications=J_FULL, workers=2)


@pytest.fixture(scope="module")
def run_model2(model2):
    return E.run_scenario(model2, replications=J_FULL, workers=2)


@pytest.fixture(scope="module")
def run_cta126(cta126):
    return E.run_scenario(cta126, replications=J_FULL, workers=2)


@pytest.fixture(scope="module")
def run_cta84(cta84):
    return E.run_scenario(cta84, replications=J_FULL, workers=2)


@pytest.fixture(scope="module")
def model1_means(model1):
    """Pooled per-replication means for both modes (600 replications)."""
    sums = {
        "fixed": {m: 0.0 for m in E.METRICS},
        "amsod": {m: 0.0 for m in E.METRICS},
    }
    n = 600
    for rep in range(n):
        ss = np.random.SeedSequence(entropy=[model1.seed], spawn_key=(rep,))
        reqs = S.sample_requests(model1.grid, model1.service, np.random.default_rng(ss))
        for mode in ("fixed", "amsod"):
            logs = S.simulate_requests(model1, mode, reqs)
            metrics = E.replication_metrics(model1, reqs, logs)
            for m in E.METRICS:
                sums[mode][m] += metrics[m]
    return {mode: {m: v / n for m, v in vals.items()} for mode, vals in sums.items()}


def test_criterion_1_model1_fixed(run_model1):
    with criterion(1, "Model 1 fixed route"):
        f = run_model1.fixed.metrics
        assert 6.4 <= f["avg_wait_min"].median <= 8.6
        assert abs(f["avg_wait_min"].median - 7.5) <= 0.5
        assert 12.2 <= f["avg_ivtt_min"].median <= 15.6
        op = f["operator_cost"]
        assert op.median == 120.0 and op.p2_5 == 120.0 and op.p97_5 == 120.0


def test_criterion_2_model1_amsod(run_model1):
    with criterion(2, "Model 1 on-demand"):
        a = run_model1.amsod.metrics
        assert 6.6 <= a["avg_wait_min"].median <= 11.2
        assert 13.5 <= a["avg_ivtt_min"].median <= 19.4
        d = run_model1.delta_tc.median
        assert d < 0.0
        assert -134.0 <= d <= 67.0


def test_criterion_3_model2_parallel(run_model2):
    with criterion(3, "Model 2 parallel bands"):
        a = run_model2.amsod.metrics
        assert 12.6 <= a["avg_wait_min"].median <= 20.6
        d = run_model2.delta_tc.median
        assert d < 0.0
        assert -312.0 <= d <= 43.0


def test_criterion_4_cta126(run_cta126):
    with criterion(4, "route 126 case"):
        d = run_cta126.delta_tc.median
        assert -299.0 <= d <= -67.0
        amsod_ivtt = run_cta126.amsod.metrics["avg_ivtt_min"].median
        fixed_ivtt = run_cta126.fixed.metrics["avg_ivtt_min"].median
        assert amsod_ivtt < fixed_ivtt  # dwell saving flips the ride comparison
        assert run_cta126.fixed.metrics["operator_cost"].median == approx(131.0, abs=1.0)


def test_criterion_5_cta84(run_cta84):
    with criterion(5, "route 84 case"):
        d = run_cta84.delta_tc.median
        assert d < 0.0
        assert -193.0 <= d <= 38.0
        assert run_cta84.fixed.metrics["avg_wait_min"].median == approx(10.0, abs=0.5)
        assert run_cta84.fixed.metrics["operator_cost"].median == 72.0


def test_criterion_6_screening_indicators(model1, model2, cta126, cta84):
    with criterion(6, "screening indicators"):
        cases = {"model1": model1, "model2": model2, "cta126": cta126, "cta84": cta84}
        expected_si = {"model1": 0.80, "model2": 0.97, "cta126": 0.75, "cta84": 0.91}
        expected_bound = {"model1": 88.0, "model2": 88.0, "cta126": 120.0, "cta84": 65.0}
        si = {}
        for name, scn in cases.items():
            md = A.screening_dispersion(scn.grid)
            sbar = A.screening_mean_access(scn.service)
            si[name] = A.selection_indicator(scn.cost, scn.service, md, sbar)
            assert si[name] < 1.0
            assert si[name] == approx(expected_si[name], abs=0.15)
            bound = A.demand_upper_bound(scn.cost, scn.service, md, sbar)
            assert bound == approx(expected_bound[name], rel=0.30)
        pm = A.parallel_metrics(
            model2.cost,
            model2.service,
            A.screening_dispersion(model2.grid),
            A.screening_mean_access(model2.service),
            2,
        )
        assert pm.si == approx(0.88, abs=0.15)
        assert pm.demand_bound == approx(97.0, rel=0.30)
        assert si["cta126"] < si["model1"] < pm.si < si["cta84"] < si["model2"]


@pytest.fixture(scope="module")
def capacity_sweep(model1):
    spec = E.SweepSpec(dimension="capacity", values=(15, 20, 25, 30), replications=J_SWEEP, scenario=model1)
    return E.sweep(spec, workers=2)


@pytest.fixture(scope="module")
def demand_sweep(model1):
    spec = E.SweepSpec(dimension="lambda", values=(40, 60, 80, 90, 100), replications=J_SWEEP, scenario=model1)
    return E.sweep(spec, workers=2)


def test_criterion_7_sensitivity_shape(capacity_sweep, demand_sweep):
    with criterion(7, "sensitivity shapes"):
        by_cap = {value: run.delta_tc.median for value, run in zip(capacity_sweep.values, capacity_sweep.runs)}
        assert by_cap[20] - by_cap[15] < -0.25 * abs(by_cap[20]), "no sharp decrease from capacity 15 to 20"
        assert abs(by_cap[30] - by_cap[20]) < 0.10 * abs(by_cap[20]), (
            "no level-off between capacity 20 and 30: "
            f"|{by_cap[30]:.1f} - {by_cap[20]:.1f}| vs 0.1*|{by_cap[20]:.1f}|"
        )
        by_lam = {value: run.delta_tc.median for value, run in zip(demand_sweep.values, demand_sweep.runs)}
        assert by_lam[60] < 0.0 < by_lam[90], "cost-difference sign change outside (60, 90)"
        ivtts = [run.amsod.metrics["avg_ivtt_min"].median for run in demand_sweep.runs]
        assert all(a <= b + 1e-9 for a, b in zip(ivtts, ivtts[1:]))


def test_criterion_8_analytic_simulation_consistency(model1, model1_means):
    with criterion(8, "analytic vs simulated"):
        grid, svc, cost = model1.grid, model1.service, model1.cost
        k_j = svc.demand_rate * svc.headway
        md = A.screening_dispersion(grid)

        expect_ivtt = O.expected_ivtt_amsod(grid.gl_x, svc.v_d, svc.t_s_prime, k_j, md)
        sim_ivtt = model1_means["amsod"]["avg_ivtt_min"] / 60.0
        assert expect_ivtt == approx(sim_ivtt, rel=0.10)

        sbar = O.sampled_mean_access(grid, svc, n_samples=1_000_000, seed=model1.seed)
        fixed = A.hourly_cost_fixed(cost, grid, svc, mean_access=sbar)
        assert fixed.access == approx(model1_means["fixed"]["access_cost"], rel=0.15)
        assert fixed.wait == approx(model1_means["fixed"]["waiting_cost"], rel=0.15)
        assert fixed.ride == approx(model1_means["fixed"]["riding_cost"], rel=0.15)

        amsod = A.hourly_cost_amsod(cost, grid, svc, md)
        assert amsod.wait == approx(model1_means["amsod"]["waiting_cost"], rel=0.15)
        assert amsod.ride == approx(model1_means["amsod"]["riding_cost"], rel=0.15)

        rng = np.random.default_rng(model1.seed)
        ys = rng.uniform(0.0, 3.0, 1_000_000)
        assert A.Dispersion.empirical(ys).md == approx(1.0, rel=0.01)


def test_criterion_9_property_bundle(model1, model2, cta84):
    with criterion(9, "property bundle"):
        s_o = model1.service.s_o
        for scn, mode, seed in [
            (model1, "fixed", 3),
            (model1, "amsod", 3),
            (model2, "amsod", 4),
            (cta84, "fixed", 5),
            (cta84, "amsod", 5),
        ]:
            reqs = S.sample_requests(scn.grid, scn.service, seed)
            logs = S.simulate_requests(scn, mode, reqs)
            for log in logs:
                if mode == "amsod":
                    assert all(access == 0.0 for *_, access in log.rows)
                    xs = [p[0] for p in log.plan.waypoints]
                    assert all(x1 <= x2 + 1e-12 for x1, x2 in zip(xs, xs[1:]))
                for _, _, wait, _, access in log.rows:
                    assert wait >= 0.0
                    if mode == "fixed" and scn is model1:
                        assert access <= s_o + 1e-9
            ledger = O.classify_requests(reqs, logs, scn.service)
            buckets = ledger.counted_served + ledger.uncounted_served + ledger.unserved
            assert sorted(buckets) == [r.id for r in reqs]

        a = E.run_scenario(model1, replications=16, seed=99, workers=1)
        b = E.run_scenario(model1, replications=16, seed=99, workers=2)
        assert a.delta_tc_values == b.delta_tc_values and a.stats == b.stats

        rng = np.random.default_rng(2024)
        for _ in range(100):
            svc = replace(
                model1.service,
                headway=rng.uniform(3, 40) / 60,
                v_d=rng.uniform(20, 45),
                t_s_prime=rng.uniform(0.1, 0.8) / 60,
                demand_rate=rng.uniform(10, 150),
                v_h=rng.uniform(45, 100),
            )
            grid = replace(model1.grid, gl_x=rng.uniform(4, 25))
            plan = A.zonal_plan(model1.cost, grid, svc, rng.uniform(0.05, 1.5), n_max=8)
            assert plan.n_opt == O.n_opt_table(plan)

        md = A.screening_dispersion(model1.grid)
        sbar = A.screening_mean_access(model1.service)
        pm = A.parallel_metrics(model1.cost, model1.service, md, sbar, 1)
        assert pm.si == A.selection_indicator(model1.cost, model1.service, md, sbar)
        assert pm.demand_bound == A.demand_upper_bound(model1.cost, model1.service, md, sbar)


def test_criterion_10_zonal_properties(model1):
    with criterion(10, "zonal express properties"):
        md = A.screening_dispersion(model1.grid)
        svc = replace(model1.service, v_h=50.0)
        plan = A.zonal_plan(model1.cost, model1.grid, svc, md, n_max=6)
        base = A.hourly_cost_amsod(model1.cost, model1.grid, svc, md)
        assert plan.table[0].total == base.total
        assert (base.wait, base.ride, base.operator) == approx(O.one_zone_cost(model1.cost, model1.grid, svc, md), rel=1e-12)

        n_prev = None
        for headway_min in (40, 20, 10, 5, 2.5):
            p = A.zonal_plan(
                model1.cost, model1.grid, replace(svc, headway=headway_min / 60), md, n_max=12
            )
            if n_prev is not None:
                assert p.n_opt >= n_prev
            n_prev = p.n_opt

        n_prev = None
        for v_h in (36, 50, 80, 140, 240):
            p = A.zonal_plan(
                model1.cost,
                model1.grid,
                replace(svc, headway=5 / 60, v_h=v_h),
                md,
                n_max=12,
            )
            if n_prev is not None:
                assert p.n_opt >= n_prev
            n_prev = p.n_opt
