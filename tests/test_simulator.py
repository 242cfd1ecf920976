import csv
import math
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import oracles as O
from semibus import simulator as S
from semibus.experiments import replication_rng
from semibus.model import GridGeometry, Request


def all_rows(logs):
    """Every passenger row (id, t_k, wait, ivtt, access) of the logs."""
    for log in logs:
        yield from log.rows


# --- demand sampling ----------------------------------------------------------


def test_zero_demand_yields_no_requests(model1):
    svc = replace(model1.service, demand_rate=0.0)
    assert S.sample_requests(model1.grid, svc, 1) == []


def test_requests_respect_catchment(model1):
    grid = model1.grid
    reqs = S.sample_requests(grid, model1.service, 5)
    assert len(reqs) > 100
    for r in reqs:
        stop_x = grid.stop_chainages[r.home_stop]
        assert abs(r.x - stop_x) + abs(r.y) <= grid.gl_y[r.home_stop] + 1e-12
        assert 0.0 <= r.x <= grid.gl_x
        assert 0.0 <= r.t_k <= model1.service.horizon


def test_request_sampling_deterministic(model1):
    a = S.sample_requests(model1.grid, model1.service, 123)
    b = S.sample_requests(model1.grid, model1.service, 123)
    assert a == b


def test_request_counts_match_poisson_moments(model1):
    counts = [len(S.sample_requests(model1.grid, model1.service, (7, k))) for k in range(1000)]
    lam_t = model1.service.demand_rate * model1.service.horizon
    assert np.mean(counts) == approx(lam_t, abs=1.0)
    assert np.var(counts) == approx(lam_t, abs=10.0)


def _reference_positions(grid, n, rng):
    """The sampler written with Generator.choice for the stops and a
    rejection loop that rescans every point after each redraw."""
    return _reference_rounds(grid, n, rng)[:3]


def _reference_rounds(grid, n, rng):
    """_reference_positions' (x, y, stops) and the number of rounds it drew."""
    weights = np.asarray(grid.stop_weights, dtype=float)
    stops = rng.choice(grid.n_stops, size=n, p=weights / weights.sum())
    chain, gl = np.asarray(grid.stop_chainages)[stops], np.asarray(grid.gl_y)[stops]
    dx = rng.uniform(-grid.d_xs / 2.0, grid.d_xs / 2.0, n)
    y = rng.uniform(-gl, gl)
    bad = (np.abs(dx) + np.abs(y) > gl) | (chain + dx < 0.0) | (chain + dx > grid.gl_x)
    rounds = 1
    while bad.any():
        rounds += 1
        idx = np.nonzero(bad)[0]
        dx[idx] = rng.uniform(-grid.d_xs / 2.0, grid.d_xs / 2.0, idx.size)
        y[idx] = rng.uniform(-gl[idx], gl[idx])
        x = chain[idx] + dx[idx]
        bad[idx] = (np.abs(dx[idx]) + np.abs(y[idx]) > gl[idx]) | (x < 0.0) | (x > grid.gl_x)
    return chain + dx, y, stops, rounds


@pytest.mark.parametrize("name", ["model1", "model2", "cta126", "cta84"])
def test_stop_draws_match_generator_choice(request, name):
    grid = request.getfixturevalue(name).grid
    for seed, n in [(0, 1), (1, 7), (2, 180), (3, 2000)]:
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = S._sample_positions(grid, [0, n], [a]), _reference_positions(grid, n, b)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert a.bit_generator.state == b.bit_generator.state


def test_no_draw_for_no_points(cta84):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert all(a.size == 0 for a in S._sample_positions(cta84.grid, [0, 0], [rng]))
    assert rng.bit_generator.state == state


def test_many_rejection_rounds_match_reference(cta126):
    """cta126's catchment is a diamond half the area of its square draw,
    so 1,440 points take many rounds, the last ones over a few points."""
    a, b = replication_rng((1729,), 0), replication_rng((1729,), 0)
    got = S._sample_positions(cta126.grid, [0, 1440], [a])
    *want, rounds = _reference_rounds(cta126.grid, 1440, b)
    assert rounds >= 8
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert a.bit_generator.state == b.bit_generator.state


def test_one_random_call_per_round_equals_two_uniform_calls(cta84):
    """numpy's Generator.uniform maps next_double as low + (high - low) * u,
    so one random(2m) carries both of a round's uniform draws bit for bit."""
    h, widths = cta84.grid.d_xs / 2.0, np.unique(cta84.grid.gl_y)
    assert widths.tolist() == [0.2, 0.4, 0.8]
    cases = np.random.default_rng(99)
    for seed in range(300):
        m = int(cases.integers(1, 301))
        g = cases.choice(widths, m)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        u = a.random(2 * m)
        dx, y = -h + (h - -h) * u[:m], -g + (g - -g) * u[m:]
        assert dx.tobytes() == b.uniform(-h, h, m).tobytes()
        assert y.tobytes() == b.uniform(-g, g).tobytes()
        assert a.bit_generator.state == b.bit_generator.state


def _brute_nearest(chainage, x):
    """The stop with the smallest |x - chainage| for each x, the last of
    equals on a tie (downstream), and that distance."""
    dist = np.abs(x[:, None] - chainage[None, :])
    stop = len(chainage) - 1 - np.argmin(dist[:, ::-1], axis=1)
    return stop, dist[np.arange(len(x)), stop]


@pytest.mark.parametrize("name, rate", [("model1", 0.5), ("model2", None), ("cta126", 480.0), ("cta84", None)])
def test_a_draw_alone_equals_its_slice_of_a_block(request, name, rate):
    # model1 at 0.5/h has empty draws; cta126 at 480/h takes many rejection rounds
    scn = request.getfixturevalue(name)
    svc = scn.service if rate is None else replace(scn.service, demand_rate=rate)
    rngs = [replication_rng((11,), r) for r in range(6)]
    demand, draws = S._sample_block(scn.grid, svc, rngs)
    assert draws[0] == 0 and draws[-1] == len(demand.id)
    for r, (lo, hi) in enumerate(zip(draws, draws[1:])):
        alone = replication_rng((11,), r)
        for got, want in zip(demand, S.sample_demand(scn.grid, svc, alone)):
            assert got.dtype == want.dtype and np.array_equal(got[lo:hi], want)
        assert alone.bit_generator.state == rngs[r].bit_generator.state
    if rate == 0.5:
        assert 0 in np.diff(draws) and np.diff(draws).any()


@pytest.mark.parametrize("name", ["model1", "model2", "cta126", "cta84"])
def test_nearest_stops_match_brute_force(request, name):
    grid = request.getfixturevalue(name).grid
    chainage = np.asarray(grid.stop_chainages)
    x = np.concatenate([chainage, (chainage[:-1] + chainage[1:]) / 2.0, [0.0, grid.gl_x], np.random.default_rng(4).uniform(0.0, grid.gl_x, 1000)])
    stop, dist = S._nearest_stops(grid, x)
    want_stop, want_dist = _brute_nearest(chainage, x)
    assert np.array_equal(stop, want_stop)
    assert np.array_equal(dist, want_dist)
    mid = x[len(chainage) : 2 * len(chainage) - 1]
    assert (np.abs(mid - chainage[:-1]) == np.abs(chainage[1:] - mid)).any()  # some midpoints are exact ties, so the downstream rule is exercised


def _copy_grid(grid):
    return GridGeometry(**{f.name: getattr(grid, f.name) for f in fields(grid)})


def test_equal_grids_hash_equal(cta126):
    a, b = cta126.grid, _copy_grid(cta126.grid)
    assert a is not b and a == b and hash(a) == hash(b)


def test_pickled_grid_keeps_equality_and_hash(cta126):
    grid = cta126.grid
    back = pickle.loads(pickle.dumps(grid))
    assert back == grid and hash(back) == hash(grid) and repr(back) == repr(grid)


def test_replaced_grid_is_rehashed(model1):
    grid = replace(model1.grid, gl_y=0.25)
    fresh = _copy_grid(grid)
    assert grid != model1.grid and hash(grid) == hash(fresh)
    assert grid.gl_y == (0.25,) * grid.n_stops


# --- street snapping ----------------------------------------------------------


def test_snap_examples(model1):
    grid = model1.grid
    assert O.snap_to_streets((1.03, 0.27), grid) == approx((1.0, 0.3))
    assert O.snap_to_streets((1.1, 0.05), grid) == (1.0, 0.0)  # both midpoint ties
    assert O.snap_to_streets((1.1, -0.05), grid) == (1.0, 0.0)


@given(st.floats(min_value=0, max_value=10), st.floats(min_value=-0.6, max_value=0.6))
@settings(max_examples=200)
def test_snap_idempotent(x, y):
    from semibus.model import GridGeometry

    grid = GridGeometry(
        l_x=0.2, l_y=0.1, gl_x=10.0, gl_y=0.6,
        stop_chainages=(0.0, 10.0), stop_weights=(0.5, 0.5), d_xs=0.4,
    )
    once = O.snap_to_streets((x, y), grid)
    assert O.snap_to_streets(once, grid) == once


# --- on-demand route planning ---------------------------------------------------


def test_plan_empty_trip(model1):
    plan = O.plan_amsod_route([], model1.grid, model1.service)
    assert plan.d_x == 10.0 and plan.d_y == 0.0
    assert plan.waypoints[0] == (0.0, 0.0) and plan.waypoints[-1] == (10.0, 0.0)


def test_plan_single_pickup_out_and_back(model1):
    plan = O.plan_amsod_route([Request(0, 5.0, 0.2, 0.0, 12)], model1.grid, model1.service)
    assert plan.d_y == approx(0.4)
    assert O.rectilinear_length(plan) == approx(plan.d_x + plan.d_y, abs=1e-9)


def test_plan_same_street_pair_then_axis_point(model1):
    reqs = [Request(0, 1.0, 0.3, 0.0, 2), Request(1, 1.0, -0.2, 0.0, 2), Request(2, 2.0, 0.0, 0.0, 5)]
    plan = O.plan_amsod_route(reqs, model1.grid, model1.service)
    assert plan.d_y == approx(0.3 + 0.5 + 0.2)
    assert plan.d_x == approx(10.0)
    assert [p.request_id for p in plan.pickups] == [0, 1, 2]
    assert [p.remaining_stops for p in plan.pickups] == [2, 1, 0]


def test_plan_rejects_off_lattice(model1):
    with pytest.raises(ValueError, match="lattice"):
        O.plan_amsod_route([Request(0, 1.03, 0.3, 0.0, 2)], model1.grid, model1.service)


def test_plan_pickup_times_nondecreasing(model1):
    rng = np.random.default_rng(3)
    reqs = []
    for i in range(20):
        x, y = O.snap_to_streets((rng.uniform(0, 10), rng.uniform(-0.5, 0.5)), model1.grid)
        reqs.append(Request(i, x, y, 0.0, 0))
    plan = O.plan_amsod_route(reqs, model1.grid, model1.service)
    times = [p.time for p in plan.pickups]
    assert all(t1 <= t2 for t1, t2 in zip(times, times[1:]))
    assert O.rectilinear_length(plan) == approx(plan.d_x + plan.d_y, abs=1e-9)


def test_shared_pickup_point_single_dwell(model1):
    svc = model1.service
    reqs = [Request(0, 5.0, 0.2, 0.0, 12), Request(1, 5.0, 0.2, 0.0, 12)]
    plan = O.plan_amsod_route(reqs, model1.grid, svc, depart_time=1.0)
    assert plan.pickups[0].time == plan.pickups[1].time
    # one dwell at the shared point, none elsewhere
    assert plan.end_time == approx(1.0 + (10.0 + 0.4) / svc.v_d + svc.t_s_prime)


# --- trip evaluation -----------------------------------------------------------


def test_amsod_trip_has_no_access_cost(model1):
    reqs = [Request(0, 3.0, 0.1, 0.0, 7), Request(1, 6.0, -0.3, 0.0, 15)]
    plan = O.plan_amsod_route(reqs, model1.grid, model1.service)
    _, rows = O.evaluate_amsod_trip(plan, model1.cost, model1.service, reqs)
    assert len(rows) == 2
    assert all(access == 0.0 for *_, access in rows)


def test_single_passenger_carries_no_dwell(model1):
    svc = model1.service
    req = Request(0, 5.0, 0.2, 0.0, 12)
    plan = O.plan_amsod_route([req], model1.grid, svc)
    _, rows = O.evaluate_amsod_trip(plan, model1.cost, svc, [req])
    ivtt = rows[0][3]
    assert ivtt == approx((0.2 + 5.0) / svc.v_d, abs=1e-12)


def test_amsod_negative_wait_rejected(model1):
    req = Request(0, 5.0, 0.2, 2.0, 12)  # requested after the trip passes
    plan = O.plan_amsod_route([req], model1.grid, model1.service, depart_time=0.0)
    with pytest.raises(ValueError, match="negative wait"):
        O.evaluate_amsod_trip(plan, model1.cost, model1.service, [req])


def test_fixed_trip_hand_example(model1):
    # passenger beside the chainage-6.0 stop: 0.2 km walk, 4 km ride
    sched = S.build_schedule(model1.grid, model1.service)
    req = Request(0, 6.0, 0.2, 0.0, 15)
    _, rows = O.evaluate_fixed_trip([req], 0, sched, model1.cost, model1.grid, model1.service)
    _, _, _, ivtt, access = rows[0]
    assert access * 60 == approx(3.0)
    ride_km = (ivtt - model1.service.t_s * (model1.grid.n_stops - 15 - 1)) * model1.service.v_d
    assert ride_km == approx(4.0)


def test_fixed_wait_zero_at_exact_arrival(model1):
    sched = S.build_schedule(model1.grid, model1.service)
    stop = 10
    arrival = sched.departures[0] + sched.stop_offsets[stop]
    access = 0.2 / model1.service.v_w
    req = Request(0, model1.grid.stop_chainages[stop], 0.2, arrival - access, stop)
    _, rows = O.evaluate_fixed_trip([req], 0, sched, model1.cost, model1.grid, model1.service)
    assert rows[0][2] == approx(0.0, abs=1e-12)


# --- partitioning ---------------------------------------------------------------


def test_parallel_identity(model2):
    reqs = S.sample_requests(model2.grid, model2.service, 11)
    assert S.partition_parallel(reqs, model2.grid, 1) == [list(reqs)]


def test_parallel_band_assignment(model2):
    reqs = [Request(0, 5.0, -0.5, 0.0, 12), Request(1, 5.0, 0.5, 0.0, 12)]
    bands = S.partition_parallel(reqs, model2.grid, 2)
    assert [r.id for r in bands[0]] == [0]
    assert [r.id for r in bands[1]] == [1]


def test_parallel_bands_balanced(model2):
    lo = hi = 0
    for k in range(1000):
        reqs = S.sample_requests(model2.grid, model2.service, (13, k))
        bands = S.partition_parallel(reqs, model2.grid, 2)
        lo += len(bands[0])
        hi += len(bands[1])
    n = lo + hi
    assert abs(lo - hi) <= 3 * math.sqrt(n)


def test_band_edges(model1):
    # stops 0-4 have half-widths 1, 0.5, 0.6, 1.2 and 1.4 km: a request is
    # banded by its own stop's catchment
    n_stops = model1.grid.n_stops
    grid = replace(model1.grid, gl_y=(1.0, 0.5, 0.6, 1.2, 1.4) + (1.0,) * (n_stops - 5))
    # (y, home stop, band); on an inner edge the band whose centre is
    # nearer the axis wins, on a symmetric tie the lower one
    cases = {
        2: [(-1.0, 0, 0), (0.0, 0, 0), (1.0, 0, 1), (-0.5, 1, 0), (0.0, 1, 0), (0.5, 1, 1)],
        3: [(-1.0, 0, 0), (-1 / 3, 0, 1), (1 / 3, 0, 1), (1.0, 0, 2), (-1 / 6, 1, 1), (1 / 6, 1, 1), (0.5, 1, 2)],
        4: [(-1.0, 0, 0), (-0.5, 0, 1), (0.0, 0, 1), (0.5, 0, 2), (1.0, 0, 3), (-0.25, 1, 1), (0.0, 1, 1), (0.25, 1, 2)],
    }
    # widths whose band centres are inexact in floating point
    for stop, gl in (2, 0.6), (3, 1.2), (4, 1.4):
        cases[2] += [(0.0, stop, 0)]
        cases[3] += [(-gl / 3, stop, 1), (gl / 3, stop, 1)]
        cases[4] += [(-gl / 2, stop, 1), (0.0, stop, 1), (gl / 2, stop, 2)]
    for n_p, rows in cases.items():
        reqs = [Request(i, 5.0, y, 0.0, stop) for i, (y, stop, _) in enumerate(rows)]
        bands = S.partition_parallel(reqs, grid, n_p)
        assert [next(b for b, band in enumerate(bands) if r in band) for r in reqs] == [b for *_, b in rows], n_p


def test_zone_edges(model1):
    gl_x = model1.grid.gl_x
    for n, ends in {2: [5.0], 3: [10 / 3, 20 / 3], 4: [2.5, 5.0, 7.5]}.items():
        slices = O.partition_zonal([Request(i, x, 0.0, 0.0, 0) for i, x in enumerate([0.0] + ends + [gl_x])], model1.grid, n)
        assert [s.x_lo for s in slices[1:]] == ends
        assert [[r.x for r in s.requests] for s in slices] == [[0.0]] + [[x] for x in ends[:-1]] + [[ends[-1], gl_x]]


def test_zonal_identity(model1):
    reqs = S.sample_requests(model1.grid, model1.service, 11)
    slices = O.partition_zonal(reqs, model1.grid, 1)
    assert len(slices) == 1
    assert slices[0].express_length == 0.0
    assert list(slices[0].requests) == list(reqs)


def test_zonal_assignment_and_express(model1):
    slices = O.partition_zonal([Request(0, 7.2, 0.0, 0.0, 18)], model1.grid, 2)
    assert len(slices[0].requests) == 0 and slices[0].express_length == approx(5.0)
    assert len(slices[1].requests) == 1 and slices[1].express_length == approx(0.0)


def test_zonal_operator_saving_with_clustered_demand(model1):
    svc = replace(model1.service, n_zones=2, v_h=50.0)
    scn = replace(model1, service=svc)
    reqs = [Request(i, 1.0 + 0.2 * i, 0.2, 0.0, 3 + i) for i in range(5)]
    op_zonal = sum(l.c_o for l in S.simulate_requests(scn, "amsod", reqs))
    op_single = sum(l.c_o for l in S.simulate_requests(model1, "amsod", reqs))
    assert op_zonal < op_single


def test_zonal_ivtt_includes_express_leg(model1):
    svc = replace(model1.service, n_zones=2, v_h=50.0)
    scn = replace(model1, service=svc)
    req = Request(0, 2.0, 0.2, 0.0, 5)
    logs = S.simulate_requests(scn, "amsod", [req])
    log = next(l for l in logs if l.served_ids)
    assert log.plan.express_legs == ((5.0, 50.0),)
    ivtt = log.rows[0][3]
    # 3 km left in zone 1 plus 0.2 back to axis, then 5 km express
    assert ivtt == approx((3.0 + 0.2) / svc.v_d + 5.0 / 50.0, abs=1e-12)


def test_zonal_trace_ends_outer_zone_trips_on_the_highway(model1, tmp_path):
    # trip i serves zone i % 3; zones 0 and 1 run express from their end to gl_x
    scn = replace(model1, service=replace(model1.service, n_zones=3, v_h=60.0))
    logs = S.simulate_requests(scn, "amsod", S.sample_requests(scn.grid, scn.service, 5))
    path = tmp_path / "zonal.csv"
    S.write_trace(scn, S.sample_demand(scn.grid, scn.service, 5), path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for log in logs:
        trip = [r for r in rows if r[0] == str(log.trip_index)]
        express = [r for r in trip if r[4] == "express"]
        if log.trip_index % 3 < 2:
            assert express == [trip[-1]] == [[str(log.trip_index), f"{log.plan.end_time:.6f}", f"{scn.grid.gl_x:.4f}", "0.0000", "express"]]
        else:
            assert express == []


# --- timeline -------------------------------------------------------------------


def test_departure_count(model1, cta84):
    assert len(S.build_schedule(model1.grid, model1.service).departures) == 12
    assert len(S.build_schedule(cta84.grid, cta84.service).departures) == 9


def test_capacity_one_spills_to_next_trip(model1):
    scn = replace(model1, service=replace(model1.service, capacity=1))
    reqs = [Request(0, 5.0, 0.2, 0.0, 12), Request(1, 5.0, 0.2, 0.0, 12)]
    logs = S.simulate_requests(scn, "amsod", reqs)
    assert logs[0].served_ids == (0,) and logs[0].spilled_ids == (1,)
    assert logs[1].served_ids == (1,)
    w0 = logs[0].rows[0][2]
    w1 = logs[1].rows[0][2]
    assert w1 - w0 == approx(scn.service.headway, abs=1e-9)


def test_fixed_operator_cost_exact(model1, cta84):
    logs = S.simulate_requests(model1, "fixed", S.sample_requests(model1.grid, model1.service, 5))
    assert sum(l.c_o for l in logs) == 120.0
    logs84 = S.simulate_requests(cta84, "fixed", S.sample_requests(cta84.grid, cta84.service, 5))
    assert sum(l.c_o for l in logs84) == 72.0


def test_timeline_deterministic(model1):
    for mode in ("fixed", "amsod"):
        first, again = (S.simulate_requests(model1, mode, S.sample_requests(model1.grid, model1.service, 77)) for _ in range(2))
        assert first == again


def test_request_conservation(model1):
    reqs = S.sample_requests(model1.grid, model1.service, 21)
    for mode in ("fixed", "amsod"):
        logs = S.simulate_requests(model1, mode, reqs)
        ledger = O.classify_requests(reqs, logs, model1.service)
        ids = sorted(ledger.counted_served + ledger.uncounted_served + ledger.unserved)
        assert ids == [r.id for r in reqs]
        served_once = [rid for log in logs for rid in log.served_ids]
        assert len(served_once) == len(set(served_once))


def test_route_monotone_and_ends_on_axis(model1):
    logs = S.simulate_requests(model1, "amsod", S.sample_requests(model1.grid, model1.service, 31))
    for log in logs:
        xs = [p[0] for p in log.plan.waypoints]
        assert all(x1 <= x2 + 1e-12 for x1, x2 in zip(xs, xs[1:]))
        assert log.plan.waypoints[-1] == (model1.grid.gl_x, 0.0)
        assert O.rectilinear_length(log.plan) == approx(log.plan.d_x + log.plan.d_y, abs=1e-9)


def test_route_dy_matches_pickup_sequence(model1):
    logs = S.simulate_requests(model1, "amsod", S.sample_requests(model1.grid, model1.service, 31))
    for log in logs:
        ys = [p.point[1] for p in log.plan.pickups]
        if not ys:
            assert log.plan.d_y == 0.0
            continue
        total = abs(ys[0]) + sum(abs(b - a) for a, b in zip(ys, ys[1:])) + abs(ys[-1])
        assert log.plan.d_y == approx(total, abs=1e-9)


def test_fixed_access_bounded_and_waits_nonnegative(model1):
    logs = S.simulate_requests(model1, "fixed", S.sample_requests(model1.grid, model1.service, 13))
    s_o = model1.service.s_o
    for _, _, wait, ivtt, access in all_rows(logs):
        assert access <= s_o + 1e-9
        assert wait >= 0.0
        assert ivtt >= 0.0


def test_amsod_waits_nonnegative(model1):
    logs = S.simulate_requests(model1, "amsod", S.sample_requests(model1.grid, model1.service, 13))
    for _, _, wait, _, access in all_rows(logs):
        assert wait >= 0.0
        assert access == 0.0


def test_fixed_spill_fifo(model1):
    # three passengers at one stop, capacity 2: earliest two board first
    scn = replace(model1, service=replace(model1.service, capacity=2))
    reqs = [
        Request(0, 2.0, 0.1, 0.02, 5),
        Request(1, 2.0, -0.1, 0.01, 5),
        Request(2, 2.0, 0.1, 0.03, 5),
    ]
    logs = S.simulate_requests(scn, "fixed", reqs)
    first = next(l for l in logs if l.served_ids)
    assert set(first.served_ids) == {0, 1}
    assert first.spilled_ids == (2,)


def _variant(scn, variant):
    """scn with its service at one of the named settings."""
    svc = scn.service
    settings = {
        "shipped": svc,
        "zonal3": replace(svc, n_parallel=1, n_zones=3, v_h=60.0),
        "parallel2": replace(svc, n_parallel=2, n_zones=1),
        "cap5_200": replace(svc, capacity=5, demand_rate=200.0),
        "lambda480": replace(svc, demand_rate=480.0),
    }
    return replace(scn, service=settings[variant])


@pytest.mark.parametrize("setting", ["shipped", "cap5_200", "lambda480"])
@pytest.mark.parametrize("name", ["model1", "model2", "cta126", "cta84"])
def test_fixed_matches_cohort_reference(request, name, setting):
    # every trip's operator cost, rows and spill equal the sort-per-trip
    # cohort loop's, with no tolerance
    scn = _variant(request.getfixturevalue(name), setting)
    spills = 0
    for seed in range(10):
        reqs = S.sample_requests(scn.grid, scn.service, seed)
        got = [(log.c_o, list(log.rows), list(log.spilled_ids)) for log in S.simulate_requests(scn, "fixed", reqs)]
        assert got == list(O.reference_fixed_records(scn, S._demand(reqs))), seed
        spills += sum(len(trip[2]) for trip in got)
    assert spills or setting == "shipped"  # the loaded settings spill


@pytest.mark.parametrize("name, variant", [("model1", "shipped"), ("model1", "zonal3"), ("model1", "parallel2"), ("cta126", "lambda480")])
def test_amsod_rows_match_row_by_row_reference(request, name, variant):
    # every on-demand trip's rows equal the oracle's row-by-row costing of
    # the trip's own plan, signed zeros included
    scn = _variant(request.getfixturevalue(name), variant)
    rows = 0
    for seed in range(5):
        reqs = S.sample_requests(scn.grid, scn.service, seed)
        for log in S.simulate_requests(scn, "amsod", reqs):
            assert repr(list(log.rows)) == repr(O.evaluate_amsod_trip(log.plan, scn.cost, scn.service, reqs)[1]), seed
            rows += len(log.rows)
    assert rows


def test_simulated_means_near_analytic(model1):
    # light version of the analytic consistency gate
    from semibus import analytic as A

    svc, grid = model1.service, model1.grid
    ivtts, dys = [], []
    for k in range(60):
        logs = S.simulate_requests(model1, "amsod", S.sample_requests(model1.grid, model1.service, (101, k)))
        for log in logs:
            dys.append(log.plan.d_y)
        for _, _, _, ivtt, _ in all_rows(logs):
            ivtts.append(ivtt)
    k_j = svc.demand_rate * svc.headway
    md = A.screening_dispersion(grid)
    expect = O.expected_ivtt_amsod(grid.gl_x, svc.v_d, svc.t_s_prime, k_j, md)
    assert np.mean(ivtts) == approx(expect, rel=0.10)
    assert np.mean(dys) <= k_j * md * 1.10
    assert np.mean(dys) >= k_j * md * 0.60


def test_write_trace(tmp_path, model1):
    path = tmp_path / "trace.csv"
    S.write_trace(model1, S.sample_demand(model1.grid, model1.service, 3), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trip,time_h,x_km,y_km,event"
    assert len(lines) > 12
    events = {line.split(",")[4] for line in lines[1:]}
    assert "pickup" in events and "move" in events and "dwell" in events
    # times nondecreasing within each trip
    by_trip = {}
    for line in lines[1:]:
        trip, t = line.split(",")[0], float(line.split(",")[1])
        assert by_trip.get(trip, -1.0) <= t + 1e-9
        by_trip[trip] = t


TRACE_VARIANTS = {  # 3 zones run express legs; 480/h fills trips
    "shipped": {},
    "zonal3": {"n_parallel": 1, "n_zones": 3, "v_h": 60.0},
    "bands2": {"n_zones": 1, "n_parallel": 2},
    "lam480": {"demand_rate": 480.0},
}


def assert_trace_matches_reference(scn, requests, tmp_path) -> str:
    # the reference reads the TripLogs of the same draw
    S.write_trace(scn, S._demand(requests), tmp_path / "got.csv")
    O.reference_trace(S.simulate_requests(scn, "amsod", requests), scn.service, tmp_path / "want.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    return got.decode()


@pytest.mark.parametrize("variant", sorted(TRACE_VARIANTS))
@pytest.mark.parametrize("corridor", ["model1", "model2", "cta126", "cta84"])
def test_write_trace_matches_positional_reference(request, tmp_path, corridor, variant):
    base = request.getfixturevalue(corridor)
    scn = replace(base, service=replace(base.service, **TRACE_VARIANTS[variant]))
    for seed in (1, 2, 3):
        assert_trace_matches_reference(scn, S.sample_requests(scn.grid, scn.service, seed), tmp_path)


def test_write_trace_first_pickup_at_the_start(tmp_path, model1):
    # both snap to the terminal (0, 0): the first pickup is the start, and they share it
    requests = [Request(0, 0.05, 0.02, 0.0, 0), Request(1, 0.05, 0.02, 0.0, 0)]
    logs = S.simulate_requests(model1, "amsod", requests)
    assert [p.point for p in logs[0].plan.pickups] == [(0.0, 0.0)] * 2
    rows = assert_trace_matches_reference(model1, requests, tmp_path).splitlines()
    assert rows[1:3] == ["0,0.000000,0.0000,0.0000,pickup", f"0,{model1.service.t_s_prime:.6f},0.0000,0.0000,dwell"]


def test_sampled_mean_access_matches_quadrature(model1):
    got = O.sampled_mean_access(model1.grid, model1.service, n_samples=400_000, seed=1729)
    gl = model1.grid.max_gl_y
    a = np.linspace(0, model1.grid.d_xs / 2, 1201)[None, :]
    b = np.linspace(0, gl, 1201)[:, None]
    mask = (a + b) <= gl
    quad = float(((a + b) * mask).sum() / mask.sum() / model1.service.v_w)
    assert got == approx(quad, abs=2e-4)


# --- dispatch invariants ----------------------------------------------------------


def _zonal3(scenario):
    return replace(scenario, service=replace(scenario.service, n_parallel=1, n_zones=3, v_h=60.0))


def test_zonal_bus_never_backs_up_at_zone_end(model1):
    # 3.32 lies in zone 0 (ends at 10/3 km) but snaps to the 3.4 cross-street;
    # on a single route ending off the lattice at 10.95 km, 10.92 snaps to 11.0
    off_lattice_end = replace(model1, grid=replace(model1.grid, gl_x=10.95))
    for scn, x, stop in (_zonal3(model1), 3.32, 8), (off_lattice_end, 10.92, model1.grid.n_stops - 1):
        logs = S.simulate_requests(scn, "amsod", [Request(0, x, 0.2, 0.0, stop)])
        plan = logs[0].plan
        assert logs[0].served_ids == (0,)
        xs = [p[0] for p in plan.waypoints]
        assert all(x1 <= x2 for x1, x2 in zip(xs, xs[1:]))
        assert plan.d_x + plan.d_y == approx(O.rectilinear_length(plan), abs=1e-12)


def test_request_caught_by_first_trip_past_the_snapped_width(model1):
    # gl_y 0.56 snaps out to 0.6: 29 sweeps of 1.2 km across the axis
    # bring trip 0 to (10.0, -0.6) at about 1.4905 h, later than a bound
    # that charges each pickup only 2 * gl_y of cross-street (1.4457 h)
    scn = replace(model1, grid=replace(model1.grid, gl_y=0.56))
    reqs = [Request(i, round(4.2 + 0.2 * i, 6), 0.555 * (-1) ** i, 0.0, 0) for i in range(29)]
    last = [Request(29, 10.0, -0.555, 0.0, 0)]
    lattice = [Request(r.id, *O.snap_to_streets((r.x, r.y), scn.grid), 0.0, 0) for r in reqs + last]
    arrival = O.plan_amsod_route(lattice, scn.grid, scn.service).pickups[-1].time
    t_k = arrival - 0.02
    assert t_k > 1.4457
    logs = S.simulate_requests(scn, "amsod", reqs + [replace(last[0], t_k=t_k)])
    assert 29 in logs[0].served_ids
    assert logs[0].plan.pickups[-1].time == approx(arrival)


@pytest.mark.parametrize("zonal", [False, True], ids=["shipped", "zonal3"])
@pytest.mark.parametrize("name", ["model1", "model2", "cta126", "cta84"])
def test_dispatch_invariants_on_bundled_corridors(request, name, zonal):
    scn = request.getfixturevalue(name)
    if zonal:
        scn = _zonal3(scn)
    reqs = S.sample_requests(scn.grid, scn.service, 2024)
    for mode in ("fixed", "amsod"):
        logs = S.simulate_requests(scn, mode, reqs)
        served = [rid for log in logs for rid in log.served_ids]
        assert len(served) == len(set(served))
        ledger = O.classify_requests(reqs, logs, scn.service)
        buckets = ledger.counted_served + ledger.uncounted_served + ledger.unserved
        assert sorted(buckets) == [r.id for r in reqs]
        assert set(served) == set(ledger.counted_served + ledger.uncounted_served)
        for log in logs:
            assert log.served_ids == tuple(r[0] for r in log.rows)
            assert not set(log.served_ids) & set(log.spilled_ids)
            if mode == "amsod":
                xs = [p[0] for p in log.plan.waypoints]
                assert all(x1 <= x2 for x1, x2 in zip(xs, xs[1:]))
                assert log.plan.d_x + log.plan.d_y == approx(O.rectilinear_length(log.plan), abs=1e-9)


@pytest.mark.parametrize(
    "changes",
    [{"capacity": 5, "demand_rate": 200.0}, {"demand_rate": 480.0}, {"demand_rate": 480.0, "n_parallel": 1, "n_zones": 3, "v_h": 60.0}],
    ids=["crowded", "backlogged", "zonal3-backlogged"],
)
@pytest.mark.parametrize("name", ["model1", "model2", "cta126", "cta84"])
def test_spill_is_served_later_on_its_sub_route_or_never(request, name, changes):
    # a spilled id waits for the next trip of its sub-route: it is served
    # by a later trip whose index differs by a multiple of the sub-route
    # count, or not at all within the horizon
    scn = request.getfixturevalue(name)
    scn = replace(scn, service=replace(scn.service, **changes))
    svc = scn.service
    reqs = S.sample_requests(scn.grid, svc, 2024)
    for mode, n in (("fixed", 1), ("amsod", svc.n_zones if svc.n_zones > 1 else svc.n_parallel)):
        logs = S.simulate_requests(scn, mode, reqs)
        served_by = {rid: log.trip_index for log in logs for rid in log.served_ids}
        spilled = [(log.trip_index, rid) for log in logs for rid in log.spilled_ids]
        assert {rid in served_by for _, rid in spilled} == {True, False}, mode  # both outcomes occur
        for i, rid in spilled:
            later = served_by.get(rid)
            assert later is None or (later > i and (later - i) % n == 0), (mode, i, rid, later)


# --- causal on-demand planning -----------------------------------------------------


def test_future_request_does_not_change_earlier_trip(model1):
    # trip 0 sweeps x = 5.0 from the -0.4 end; a request made 2.9 h later
    # at +0.6 must not flip it to start from the +0.2 end
    now = [Request(0, 5.0, 0.2, 0.0, 12), Request(1, 5.0, -0.4, 0.0, 12)]
    later = Request(2, 5.0, 0.6, 2.9, 12)
    without = S.simulate_requests(model1, "amsod", now)[0]
    with_later = S.simulate_requests(model1, "amsod", now + [later])[0]
    assert [p.request_id for p in without.plan.pickups] == [1, 0]
    assert with_later.plan == without.plan
    assert with_later.c_o == without.c_o and with_later.rows == without.rows
    assert with_later.served_ids == without.served_ids and with_later.spilled_ids == without.spilled_ids


def test_request_at_t_bound_is_admitted(model1):
    # a request made exactly at trip 0's t_bound is admitted: the bus passes
    # before it is made, but it flips the sweep of x = 5.0 to start from its
    # +0.6 end; made one ulp later, it is left to a later trip
    grid, svc = model1.grid, model1.service
    cap, y_hat = svc.capacity, O.snap_to_streets((0.0, grid.max_gl_y), grid)[1]
    t_bound = 0.0 + ((grid.gl_x - 0.0 + (cap + 1) * 2.0 * y_hat) / svc.v_d + cap * svc.t_s_prime)
    now = [Request(0, 5.0, 0.2, 0.0, 12), Request(1, 5.0, -0.4, 0.0, 12)]
    for t, pickups in [(t_bound, [0, 1]), (math.nextafter(t_bound, math.inf), [1, 0])]:
        first = S.simulate_requests(model1, "amsod", now + [Request(2, 5.0, 0.6, t, 12)])[0]
        assert [p.request_id for p in first.plan.pickups] == pickups


def test_request_made_when_the_bus_can_first_reach_it_is_served(model1):
    # after its dwell at (2.0, -0.2) the bus can first reach (5.0, 0.4), the
    # farthest point from the axis, at arrival: |y| is y_far and the street
    # lies ahead, so the street's low equals the trip's reach but for its
    # 1e-9 margin.  A request made then boards; one made 2e-12 h later is
    # past the walk's own 1e-12 tolerance and waits for trip 1
    svc, inv_v = model1.service, 1.0 / model1.service.v_d
    t = 0.0 + (abs(-0.2 - 0.0) + (2.0 - 0.0)) * inv_v + svc.t_s_prime
    arrival = t + (abs(0.4 - -0.2) + (5.0 - 2.0)) * inv_v
    first = Request(0, 2.0, -0.2, 0.0, 6)
    for t_k, trips in [(arrival, [[0, 1], []]), (arrival + 2e-12, [[0], [1]])]:
        logs = S.simulate_requests(model1, "amsod", [first, Request(1, 5.0, 0.4, t_k, 12)])
        assert [list(log.served_ids) for log in logs[:2]] == trips
    assert logs[0].plan.pickups[0].time == 0.0 + (0.2 + 2.0) * inv_v


@pytest.mark.parametrize("variant", ["shipped", "zonal3", "parallel2"])
def test_amsod_takes_a_block_in_any_order(model1, variant):
    # a 3-draw block whose rows are shuffled within each draw gives the
    # trips of the block as drawn, each spill read before its drive
    # resumes; a shuffled Request list gives the same TripLogs in both modes
    scn = _variant(model1, variant)
    scn = replace(scn, service=replace(scn.service, capacity=5, demand_rate=200.0))
    demand, draws = S._sample_block(scn.grid, scn.service, [np.random.default_rng(s) for s in (5, 6, 7)])
    rng = np.random.default_rng(8)
    perm = np.concatenate([lo + rng.permutation(hi - lo) for lo, hi in zip(draws, draws[1:])])
    shuffled = S.Demand(*(column[perm] for column in demand))
    assert (np.diff(shuffled.t_k[draws[0] : draws[1]]) < 0).any()

    def trips(demand):
        drives = S._amsod_drives(scn, demand, draws)
        return [[(c, served, list(spilled), route, dep) for c, served, spilled, route, dep in draw] for draw in drives]

    sorted_trips = trips(demand)
    assert sum(bool(trip[2]) for draw in sorted_trips for trip in draw) > 10  # full buses spill
    assert trips(shuffled) == sorted_trips
    reqs = S.sample_requests(scn.grid, scn.service, 9)
    mixed = [reqs[i] for i in rng.permutation(len(reqs))]
    for mode in ("fixed", "amsod"):
        assert S.simulate_requests(scn, mode, mixed) == S.simulate_requests(scn, mode, reqs), mode


def test_unknown_mode_refused(model1):
    with pytest.raises(ValueError, match="'bus'"):
        S.simulate_requests(model1, "bus", [Request(0, 5.0, 0.2, 0.0, 12)])


def _amsod_trips(scn, requests):
    """simulate_requests' on-demand trips in _reference_amsod's rows."""
    return [
        (
            list(log.served_ids),
            list(log.spilled_ids),
            list(log.plan.waypoints),
            [(p.request_id, p.time, p.point, p.remaining_stops) for p in log.plan.pickups],
            log.plan.d_y,
            log.plan.end_time,
        )
        for log in S.simulate_requests(scn, "amsod", requests)
    ]


def _reference_amsod(scn, requests):
    """Per trip: regroup every visible unserved request (t_k <= t_bound)
    by cross-street and drive the visit order.  Returns one
    (served, spilled, waypoints, pickups, d_y, end_time) row per trip."""
    grid, svc = scn.grid, scn.service
    if svc.n_zones > 1:
        slices = O.partition_zonal(requests, grid, svc.n_zones)
        subs = [(z.x_lo, z.x_hi, z.express_length, z.requests) for z in slices]
    else:
        subs = [(0.0, grid.gl_x, 0.0, band) for band in S.partition_parallel(requests, grid, svc.n_parallel)]
    pending = []
    for x_lo, x_hi, _, reqs in subs:
        snapped = [O.snap_to_streets((r.x, r.y), grid) + (r.t_k, r.id) for r in reqs]
        pending.append([(min(max(sx, x_lo), x_hi), sy, tk, rid) for sx, sy, tk, rid in snapped])
    y_hat = O.snap_to_streets((0.0, grid.max_gl_y), grid)[1]
    cap, inv_v = svc.capacity, 1.0 / svc.v_d
    rows = []
    for i, dep in enumerate(S.build_schedule(grid, svc).departures):
        k = i % len(subs)
        x_lo, x_hi, express, _ = subs[k]
        t_bound = dep + ((x_hi - x_lo + (cap + 1) * 2.0 * y_hat) / svc.v_d + cap * svc.t_s_prime)
        visible = sorted((c for c in pending[k] if c[2] <= t_bound), key=lambda c: (c[0], c[3]))
        order = []
        for x in sorted({c[0] for c in visible}):
            group = [c for c in visible if c[0] == x]
            top = abs(max(c[1] for c in group)) >= abs(min(c[1] for c in group))
            order += sorted(group, key=lambda c: (-c[1] if top else c[1], c[3]))
        t, bx, by, last, d_y = dep, x_lo, 0.0, dep, 0.0
        waypoints, served, spilled, points = [(x_lo, 0.0)], [], [], 0
        for sx, sy, tk, rid in order:
            same = bool(served) and (sx, sy) == (bx, by)
            arrival = last if same else t + (abs(sy - by) + (sx - bx)) * inv_v
            if tk > arrival + 1e-12:
                continue
            if len(served) >= cap:
                spilled.append(rid)
                continue
            if not same:
                d_y += abs(sy - by)
                waypoints += [p for p, move in (((bx, sy), sy != by), ((sx, sy), sx != bx)) if move]
                t, bx, by, last, points = arrival + svc.t_s_prime, sx, sy, arrival, points + 1
            served.append((rid, arrival, (sx, sy), points))
        d_y += abs(by)
        waypoints += [p for p, move in (((bx, 0.0), by != 0.0), ((x_hi, 0.0), bx != x_hi)) if move]
        end = t + (abs(by) + (x_hi - bx)) * inv_v + (express / svc.v_h if express > 1e-9 else 0.0)
        ids = [rid for rid, *_ in served]
        pending[k] = [c for c in pending[k] if c[3] not in ids]
        pickups = [(rid, at, point, points - n) for rid, at, point, n in served]
        rows.append((ids, spilled, waypoints, pickups, d_y, end))
    return rows


@pytest.mark.parametrize("variant", ["shipped", "zonal3", "parallel2"])
def test_amsod_matches_per_trip_regrouping_reference(model1, variant):
    svc = model1.service
    if variant == "zonal3":
        svc = replace(svc, n_zones=3, v_h=60.0)
    elif variant == "parallel2":
        svc = replace(svc, n_parallel=2)
    rng = np.random.default_rng(2718)
    for trial in range(60):
        scn = replace(model1, service=replace(svc, capacity=int(rng.integers(1, 4))))
        n = int(rng.integers(0, 40))
        x = rng.uniform(0.0, scn.grid.gl_x, n).tolist()
        y = rng.uniform(-scn.grid.max_gl_y, scn.grid.max_gl_y, n).tolist()
        t_k = np.sort(rng.uniform(0.0, svc.horizon, n)).tolist()
        reqs = [Request(i, x[i], y[i], t_k[i], 0) for i in range(n)]
        assert _amsod_trips(scn, reqs) == _reference_amsod(scn, reqs), f"trial {trial}"


@pytest.mark.parametrize("variant", ["shipped", "zonal3", "parallel2"])
def test_amsod_matches_reference_on_crowded_points(model1, variant):
    # about six lattice points on three cross-streets, so most points hold
    # several requests, with ids shuffled against request times: pins id
    # order within a point, both sweep directions and a capacity cut inside
    # a point
    svc = model1.service
    if variant == "zonal3":
        svc = replace(svc, n_zones=3, v_h=60.0)
    elif variant == "parallel2":
        svc = replace(svc, n_parallel=2)
    rng = np.random.default_rng(1618)
    for trial in range(60):
        scn = replace(model1, service=replace(svc, capacity=int(rng.integers(1, 4))))
        streets = rng.choice(np.arange(1, 50) * 0.2, 3, replace=False)
        points = [(streets[rng.integers(3)], 0.1 * int(rng.integers(-5, 6))) for _ in range(6)]
        n = int(rng.integers(6, 40))
        at = rng.integers(0, len(points), n)
        jitter = rng.uniform(-0.04, 0.04, (n, 2))  # stays on the same lattice point
        t_k = np.sort(rng.uniform(0.0, svc.horizon, n)).tolist()
        ids = rng.permutation(n).tolist()
        reqs = [Request(ids[i], points[at[i]][0] + jitter[i, 0], points[at[i]][1] + jitter[i, 1], t_k[i], 0) for i in range(n)]
        assert _amsod_trips(scn, reqs) == _reference_amsod(scn, reqs), f"trial {trial}"


@pytest.mark.parametrize("name, variant", [("cta126", "lambda480"), ("cta84", "lambda480"), ("model1", "cap5_200"), ("model2", "cap5_200")])
def test_amsod_matches_reference_on_loaded_draws(request, name, variant):
    # sampled draws that fill the bus on most trips: every trip, its
    # spill included, equals the per-trip regrouping reference's
    scn = _variant(request.getfixturevalue(name), variant)
    for seed in range(3):
        reqs = S.sample_requests(scn.grid, scn.service, seed)
        got = _amsod_trips(scn, reqs)
        assert got == _reference_amsod(scn, reqs), seed
        assert sum(len(trip[1]) for trip in got) > 1000, seed  # the loaded settings spill


@pytest.mark.parametrize("capacity", [1, 2, 3])
@pytest.mark.parametrize("variant", ["shipped", "zonal3", "parallel2"])
def test_street_keys_follow_streets_that_empty_and_refill(model1, monkeypatch, variant, capacity):
    # requests on four cross-streets across the horizon, so a street's
    # last candidate is served on trip i and the street gains a request
    # again on trip i + n (n sub-routes); every trip's sorted key list must
    # be the sorted keys of its streets, and the trips must equal the
    # per-trip regrouping reference; each key's low is at most its street's
    # earliest t_k - x / v_d, the skip's bound
    svc = replace(model1.service, capacity=capacity)
    if variant == "zonal3":
        svc = replace(svc, n_zones=3, v_h=60.0)
    elif variant == "parallel2":
        svc = replace(svc, n_parallel=2)
    scn = replace(model1, service=svc)
    n = svc.n_zones * svc.n_parallel
    keys, drive, inv_v = [], S._drive, 1.0 / svc.v_d

    def recording(streets, xs, *args):
        assert [x for x, _ in xs] == sorted(streets)
        assert all(low <= min(c[3] for c in streets[x]) - x * inv_v for x, low in xs)
        keys.append({x: {c[2] for c in m} for x, m in streets.items()})
        return drive(streets, xs, *args)

    monkeypatch.setattr(S, "_drive", recording)
    rng = np.random.default_rng(31)
    refilled = 0
    for trial in range(20):
        m = int(rng.integers(10, 40))
        x = rng.choice([1.0, 2.4, 5.0, 8.6], m).tolist()
        y = rng.uniform(-0.45, 0.45, m).tolist()
        t_k = np.sort(rng.uniform(0.0, svc.horizon, m)).tolist()
        reqs = [Request(i, x[i], y[i], t_k[i], 0) for i in range(m)]
        keys.clear()
        assert _amsod_trips(scn, reqs) == _reference_amsod(scn, reqs), f"trial {trial}"
        # held on trip i, every candidate served by it, held again on trip i + n
        refilled += sum(not held[x] & keys[i + n][x] for i, held in enumerate(keys[:-n]) for x in held.keys() & keys[i + n].keys())
    assert refilled
