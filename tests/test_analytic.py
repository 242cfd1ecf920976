import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import oracles as O
from semibus import analytic as A
from semibus.model import CostParams, GridGeometry, ServiceConfig

COST = CostParams()


def svc(lam=60.0, headway_min=15.0, v_d=35.0, s_o_min=8.0, t_s_min=0.4, t_sp_min=0.4, v_h=None):
    return ServiceConfig(
        headway=headway_min / 60,
        capacity=30,
        v_d=v_d,
        v_w=4.0,
        t_s=t_s_min / 60,
        t_s_prime=t_sp_min / 60,
        demand_rate=lam,
        s_o=s_o_min / 60,
        v_h=v_h,
    )


GRID_M1 = GridGeometry(
    l_x=0.2,
    l_y=0.1,
    gl_x=10.0,
    gl_y=8 / 60 * 4,
    stop_chainages=tuple(0.4 * i for i in range(25)),
    stop_weights=(0.04,) * 25,
    d_xs=0.4,
)

# the four study corridors: service config and screening dispersion
CASES = {
    "model1": (svc(60, 15, 35, 8), 2 / 3 * (8 / 60 * 4)),
    "model2": (svc(60, 15, 35, 30), 2 / 3 * 2.0),
    "cta126": (svc(80, 15, 30, 4.5, t_s_min=0.33), 2 / 3 * 0.2),
    "cta84": (svc(50, 20, 30, 13.5, t_s_min=0.33), 2 / 3 * 0.8),
}


# --- dispersion --------------------------------------------------------------


def test_mean_abs_diff_uniform_catchment():
    gl = 8 / 60 * 4
    assert A.mean_abs_diff(A.Dispersion.uniform(-gl, gl)) == approx(0.3556, abs=1e-3)


def test_mean_abs_diff_uniform_simple():
    assert A.mean_abs_diff(A.Dispersion.uniform(0, 3)) == approx(1.0)


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_mean_abs_diff_symmetric_uniform_exact(g):
    assert A.mean_abs_diff(A.Dispersion.uniform(-g, g)) == (g - (-g)) / 3.0


def test_mean_abs_diff_normal_against_sampling():
    rng = np.random.default_rng(20260811)
    pairs = rng.standard_normal((2, 1_000_000))
    mc = float(np.abs(pairs[0] - pairs[1]).mean())
    assert A.mean_abs_diff(A.Dispersion.normal(1.0)) == approx(mc, abs=0.01)
    assert A.mean_abs_diff(A.Dispersion.normal(1.0)) == approx(2 / math.sqrt(math.pi))


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=12))
def test_mean_abs_diff_empirical_matches_all_pairs(ys):
    brute = np.mean([abs(a - b) for i, a in enumerate(ys) for j, b in enumerate(ys) if i != j])
    assert A.mean_abs_diff(A.Dispersion.empirical(ys)) == approx(float(brute), abs=1e-9)


def test_mean_abs_diff_empirical_large_sample():
    rng = np.random.default_rng(1729)
    ys = rng.uniform(0.0, 3.0, 1_000_000)
    assert A.mean_abs_diff(A.Dispersion.empirical(ys)) == approx(1.0, rel=0.01)


def test_empirical_dispersion_reads_any_iterable():
    ys = [0.3, -1.2, 2.5, 0.0, 0.7, 0.7]
    want = A.mean_abs_diff(A.Dispersion.empirical(ys))
    for samples in (tuple(ys), np.array(ys), (y for y in ys)):
        assert A.mean_abs_diff(A.Dispersion.empirical(samples)) == want


def test_dispersion_validation():
    with pytest.raises(ValueError):
        A.Dispersion.uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        A.Dispersion.normal(0.0)
    with pytest.raises(ValueError):
        A.Dispersion.empirical([1.0])


# --- expected waits and rides ------------------------------------------------


def test_expected_wait_values():
    assert A.expected_wait(0.25, 0.0) == approx(0.125)
    assert A.expected_wait(1 / 3, 0.0) * 60 == approx(10.0)
    assert A.expected_wait(0.25, 0.0025) == approx(0.13)
    with pytest.raises(ValueError):
        A.expected_wait(0.0, 0.0)


@given(st.floats(min_value=1e-4, max_value=1e3), st.floats(min_value=0, max_value=10))
def test_expected_wait_increasing_in_variance(h, var):
    assert A.expected_wait(h, var) >= A.expected_wait(h, 0.0)
    assert A.expected_wait(h, var + 0.1) > A.expected_wait(h, var)


def test_expected_ivtt_fixed_values():
    assert A.expected_ivtt_fixed(10, 35, 0.4 / 60, 25) * 60 == approx(13.57, abs=0.01)
    assert A.expected_ivtt_fixed(10, 35, 0.0, 25) * 60 == approx(8.571, abs=0.001)
    assert A.expected_ivtt_fixed(0, 35, 0.4 / 60, 0) == 0.0


def test_expected_ivtt_amsod_values():
    md = 0.3556
    assert O.expected_ivtt_amsod(10, 35, 0.4 / 60, 15, md) * 60 == approx(16.1, abs=0.1)
    assert O.expected_ivtt_amsod(10, 35, 0.4 / 60, 0, md) * 60 == approx(8.571, abs=0.001)
    assert O.expected_ivtt_amsod(10, 35, 0.0, 15, 0.0) * 60 == approx(8.571, abs=0.001)


def test_amsod_headway_variance_value():
    assert A.amsod_headway_variance(15, 0.3556, 35, 0.4 / 60) == approx(3.060e-3, abs=1e-5)
    assert A.amsod_headway_variance(0, 0.0, 35, 0.0) == 0.0


def test_amsod_headway_variance_sampling_oracle():
    # simulate the residual trip time per passenger (remaining detours plus
    # remaining dwells).  The closed form keeps only the across-position
    # component of that variance, so it must land below the pooled
    # simulated variance but on the same scale.
    rng = np.random.default_rng(99)
    g, k, v_d, tsp = 0.5333, 15, 35.0, 0.4 / 60
    md = 2 * g / 3
    closed = A.amsod_headway_variance(k, md, v_d, tsp)
    samples = []
    for _ in range(4000):
        ys = rng.uniform(-g, g, k)
        legs = np.abs(np.diff(ys))
        for i in range(k):
            rem_y = legs[i:].sum() + abs(ys[-1])
            samples.append(rem_y / v_d + tsp * (k - i - 1))
    pooled = float(np.var(samples))
    assert 0.35 * pooled < closed < 0.95 * pooled


@given(st.integers(min_value=1, max_value=60))
def test_amsod_headway_variance_monotone_in_load(k):
    assert A.amsod_headway_variance(k + 1, 0.3, 35, 0.0) > A.amsod_headway_variance(k, 0.3, 35, 0.0)


# --- hourly costs ------------------------------------------------------------


def test_hourly_cost_fixed_values():
    out = A.hourly_cost_fixed(COST, GRID_M1, svc(), mean_access=4.79 / 60)
    assert out.access == approx(158, abs=1.0)
    assert out.wait == approx(186, abs=1.0)
    assert out.ride == approx(229, abs=6.0)
    assert out.operator == approx(40.0)
    assert out.total == approx(out.access + out.wait + out.ride + out.operator)


def test_hourly_cost_fixed_zero_demand():
    quiet = replace(svc(), demand_rate=0.0)
    out = A.hourly_cost_fixed(COST, GRID_M1, quiet, mean_access=4.79 / 60)
    assert out.access == 0.0 and out.wait == 0.0 and out.ride == 0.0
    assert out.operator == approx(40.0)


def test_hourly_cost_amsod_values():
    md = 2 / 3 * (8 / 60 * 4)
    out = A.hourly_cost_amsod(COST, GRID_M1, svc(), md)
    assert out.access == 0.0
    assert out.ride == approx(267, abs=2.0)
    assert out.operator == approx(40 + 60 * md, abs=1e-9)


def test_hourly_cost_amsod_reduces_to_fixed_without_detour():
    lam_h = 60.0 * 0.25
    t_sp = (0.4 / 60) * 25 / lam_h  # same total dwell as the fixed route
    s = replace(svc(), t_s_prime=t_sp)
    amsod = A.hourly_cost_amsod(COST, GRID_M1, s, md=0.0)
    fixed = A.hourly_cost_fixed(COST, GRID_M1, s, mean_access=0.05)
    assert amsod.ride == approx(fixed.ride, rel=1e-12)


@given(
    st.floats(min_value=1, max_value=200),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.01, max_value=2.0),
)
@settings(max_examples=50)
def test_cost_summary_total_is_sum(lam, headway, md):
    s = replace(svc(lam=lam), headway=headway)
    for out in (
        A.hourly_cost_fixed(COST, GRID_M1, s, mean_access=0.08),
        A.hourly_cost_amsod(COST, GRID_M1, s, md),
    ):
        assert out.total == approx(out.access + out.wait + out.ride + out.operator, rel=1e-12)


# --- cost difference and screening -------------------------------------------


def test_delta_tc_model1_negative():
    s, md = CASES["model1"]
    assert A.delta_tc_hourly(COST, GRID_M1, s, md, mean_access=A.screening_mean_access(s)) < 0


def test_delta_tc_zero_demand():
    s, md = CASES["model1"]
    assert A.delta_tc_hourly(COST, GRID_M1, replace(s, demand_rate=0.0), md, 0.08) == 0.0


def test_delta_tc_pure_access_saving():
    s, _ = CASES["model1"]
    s = replace(s, t_s_prime=0.0)
    got = A.delta_tc_hourly(COST, GRID_M1, s, md=0.0, mean_access=0.08)
    assert got == approx(-COST.gamma_a * COST.vot * s.demand_rate * 0.08, rel=1e-12)


@given(
    st.floats(min_value=5, max_value=150),
    st.floats(min_value=5 / 60, max_value=0.75),
    st.floats(min_value=0.02, max_value=1.5),
    st.floats(min_value=0.02, max_value=0.4),
)
@settings(max_examples=100)
def test_indicator_sign_matches_cost_difference(lam, headway, md, mean_access):
    # the indicator is an algebraic rearrangement of the hourly difference
    s = replace(svc(lam=lam), headway=headway)
    si = A.selection_indicator(COST, s, md, mean_access)
    delta = A.delta_tc_hourly(COST, GRID_M1, s, md, mean_access)
    identity = COST.vot * lam * COST.gamma_a * mean_access * (si - 1.0)
    assert delta == approx(identity, rel=1e-9, abs=1e-9)
    assert (si < 1.0) == (delta < 0.0)


EXPECTED_SI = {"model1": 0.80, "model2": 0.97, "cta126": 0.75, "cta84": 0.91}
EXPECTED_BOUND = {"model1": 88.0, "cta126": 120.0, "cta84": 65.0}


@pytest.mark.parametrize("case", sorted(CASES))
def test_selection_indicator_study_values(case):
    s, md = CASES[case]
    si = A.selection_indicator(COST, s, md, A.screening_mean_access(s))
    assert si < 1.0
    assert si == approx(EXPECTED_SI[case], abs=0.15)


def test_selection_indicator_ordering():
    sis = {c: A.selection_indicator(COST, s, md, A.screening_mean_access(s)) for c, (s, md) in CASES.items()}
    s2, md2 = CASES["model2"]
    si_p = A.parallel_metrics(COST, s2, md2, A.screening_mean_access(s2), 2).si
    assert sis["cta126"] < sis["model1"] < si_p < sis["cta84"] < sis["model2"]


def test_selection_indicator_requires_access_saving():
    s, md = CASES["model1"]
    with pytest.raises(ValueError):
        A.selection_indicator(COST, s, md, 0.0)


@pytest.mark.parametrize("case", sorted(EXPECTED_BOUND))
def test_demand_bound_study_values(case):
    s, md = CASES[case]
    bound = A.demand_upper_bound(COST, s, md, A.screening_mean_access(s))
    assert bound == approx(EXPECTED_BOUND[case], rel=0.30)


def test_demand_bound_access_term_linearity():
    s, md = CASES["model1"]
    sbar = A.screening_mean_access(s)
    offset = 2 * COST.gamma_o * s.v_d / (COST.gamma_r * COST.vot)
    b1 = A.demand_upper_bound(COST, s, md, sbar) * s.headway + offset
    b2 = A.demand_upper_bound(replace(COST, gamma_a=2 * COST.gamma_a), s, md, sbar) * s.headway + offset
    assert b2 == approx(2 * b1, rel=1e-12)


def test_demand_bound_no_detour_is_unbounded():
    s, _ = CASES["model1"]
    assert A.demand_upper_bound(COST, s, 0.0, 0.08) == math.inf


def test_demand_bound_monotonicity():
    s, _ = CASES["model1"]
    bounds_md = [A.demand_upper_bound(COST, s, md, 0.08) for md in (0.1, 0.2, 0.4, 0.8, 1.2)]
    assert all(b1 > b2 for b1, b2 in zip(bounds_md, bounds_md[1:]))
    bounds_acc = [A.demand_upper_bound(COST, s, 0.3, acc) for acc in (0.03, 0.06, 0.12, 0.2)]
    assert all(b1 < b2 for b1, b2 in zip(bounds_acc, bounds_acc[1:]))


# --- parallel routes ----------------------------------------------------------


def test_parallel_reduces_to_single_route():
    s, md = CASES["model2"]
    sbar = A.screening_mean_access(s)
    pm = A.parallel_metrics(COST, s, md, sbar, 1)
    assert pm.si == A.selection_indicator(COST, s, md, sbar)
    assert pm.demand_bound == A.demand_upper_bound(COST, s, md, sbar)


@pytest.mark.parametrize("n_p", [1, 2, 3])
def test_parallel_rejects_negative_dispersion(n_p):
    s, _ = CASES["model2"]
    with pytest.raises(ValueError, match="negative dispersion"):
        A.parallel_metrics(COST, s, -0.1, A.screening_mean_access(s), n_p)


def test_parallel_study_values():
    s, md = CASES["model2"]
    pm = A.parallel_metrics(COST, s, md, A.screening_mean_access(s), 2)
    assert pm.si == approx(0.88, abs=0.15)
    assert pm.demand_bound == approx(97.0, rel=0.30)


# --- zonal express -------------------------------------------------------------


def zonal_svc(**kw):
    kw.setdefault("v_h", 50.0)
    return svc(**kw)


def test_zonal_single_zone_equals_amsod_cost():
    s = zonal_svc()
    md = 2 / 3 * (8 / 60 * 4)
    plan = A.zonal_plan(COST, GRID_M1, s, md, n_max=6)
    base = A.hourly_cost_amsod(COST, GRID_M1, s, md)
    assert plan.table[0].total == base.total
    assert plan.table[0].wait == base.wait
    assert plan.table[0].ride == base.ride
    assert plan.table[0].operator == base.operator
    assert (base.wait, base.ride, base.operator) == approx(O.one_zone_cost(COST, GRID_M1, s, md), rel=1e-12)


@pytest.mark.parametrize("headway", [pytest.param(0.0, id="zero"), pytest.param(-0.1, id="negative")])
def test_on_demand_costs_refuse_non_positive_headway(headway):
    s = replace(zonal_svc(), headway=headway)
    with pytest.raises(ValueError, match="non-positive headway"):
        A.hourly_cost_amsod(COST, GRID_M1, s, 0.3556)
    with pytest.raises(ValueError, match="non-positive headway"):
        A.zonal_plan(COST, GRID_M1, s, 0.3556, n_max=6)


def test_zonal_requires_highway_speed():
    with pytest.raises(ValueError, match="v_h"):
        A.zonal_plan(COST, GRID_M1, svc(), 0.3, n_max=3)


def test_zonal_closed_form_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(100):
        s = ServiceConfig(
            headway=rng.uniform(3, 40) / 60,
            capacity=30,
            v_d=rng.uniform(20, 45),
            v_w=4.0,
            t_s=0.4 / 60,
            t_s_prime=rng.uniform(0.1, 0.8) / 60,
            demand_rate=rng.uniform(10, 150),
            s_o=0.2,
            v_h=rng.uniform(45, 100),
        )
        grid = replace(GRID_M1, gl_x=rng.uniform(4, 25))
        md = rng.uniform(0.05, 1.5)
        plan = A.zonal_plan(COST, grid, s, md, n_max=8)
        assert plan.n_opt == O.n_opt_table(plan), (plan.n_continuous, plan.n_opt, O.n_opt_table(plan))


def test_zonal_optimum_grows_as_headway_shrinks():
    md = 0.3556
    n_prev = None
    for headway_min in (40, 20, 10, 5, 2.5):
        plan = A.zonal_plan(COST, GRID_M1, zonal_svc(headway_min=headway_min), md, n_max=12)
        if n_prev is not None:
            assert plan.n_opt >= n_prev
        n_prev = plan.n_opt
    assert n_prev > 1  # small enough headway makes zoning pay


def test_zonal_optimum_grows_with_highway_speed_ratio():
    md = 0.3556
    n_prev = None
    for v_h in (36, 50, 80, 140, 240):
        plan = A.zonal_plan(COST, GRID_M1, zonal_svc(headway_min=5, v_h=v_h), md, n_max=12)
        if n_prev is not None:
            assert plan.n_opt >= n_prev
        n_prev = plan.n_opt


def test_screening_helpers(model1):
    md = A.screening_dispersion(model1.grid)
    assert md == approx(2 / 3 * model1.grid.max_gl_y)
    assert A.screening_mean_access(model1.service) == approx(model1.service.s_o / 2)
