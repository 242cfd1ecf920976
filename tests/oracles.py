"""Reference code the tests compare the package against.

No production path calls any of it: single-trip planning and costing
from Request lists, an on-demand trip's passenger rows costed one
served record at a time (_amsod_rows), zone slices, a Monte Carlo mean
access time, the rectilinear length of a route plan, the brute-force
zone count, the request ledger of a run's trip logs, the on-demand
hourly cost composed from its closed-form terms, the fixed-route
departure loop as a sort-per-trip cohort loop with row-by-row costing,
the window fold of a replication's rows one tuple at a time, and the
waypoint trace read from a plan's waypoints with pickups matched by
position, and the snap of one point to its street intersection.  The
on-demand planning helpers reuse the simulator's routing code (_drive,
_route_plan), so a check built on them drives the routes the departure
loop drives; the costing here is this module's own.
"""
import csv
import math
from bisect import insort
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from semibus.analytic import ZonalPlan, amsod_headway_variance, expected_wait
from semibus.model import CostParams, GridGeometry, Request, RoutePlan, Scenario, ServiceConfig
from semibus.simulator import (
    Demand,
    FixedSchedule,
    SeedLike,
    TripLog,
    _demand,
    _drive,
    _nearest_stops,
    _route_plan,
    _sample_positions,
    _snap,
    _sub_routes,
    build_schedule,
)


def snap_to_streets(point: tuple, grid: GridGeometry) -> tuple:
    """Snap a point to the nearest street intersection.

    Midpoint ties go toward the route axis in y and backward in x, so
    resnapping is a fixed point.
    """
    sx = _snap(np.array([point[0]], float), grid.l_x, tie_toward_zero=False)
    return sx.item(), _snap(np.array([point[1]], float), grid.l_y, tie_toward_zero=True).item()


def plan_amsod_route(requests: Sequence[Request], grid: GridGeometry, svc: ServiceConfig, depart_time: float = 0.0) -> RoutePlan:
    """Plan one trip serving all given requests, whatever their request
    times (evaluate_amsod_trip still checks those).

    Request coordinates must already lie on the street lattice.  The bus
    starts at the terminal (0, 0) and ends on the axis at the corridor end.
    """
    for req in requests:
        sx, sy = snap_to_streets((req.x, req.y), grid)
        if not (abs(sx - req.x) < 1e-9 and abs(sy - req.y) < 1e-9):
            raise ValueError(f"request {req.id} is off the street lattice: ({req.x}, {req.y})")
    streets = {}
    for req in requests:
        insort(streets.setdefault(req.x, []), (req.x, req.y, req.id, -math.inf))  # all already due
    xs = [(x, -math.inf) for x in sorted(streets)]  # each low below any reach, so no street is skipped
    served, _, route = _drive(streets, xs, depart_time, svc, 0.0, grid.gl_x, 0.0, len(requests), 0.0)
    return _route_plan(depart_time, served, route)


def _amsod_rows(served, route, svc: ServiceConfig) -> list:
    """The passenger rows of one on-demand trip from its served records
    (request_id, t_k, arrival, point) and route.

    Access is identically zero.  Wait runs from request time to the bus's
    arrival at the pickup point; in-vehicle time from when the bus leaves
    that point (so a lone passenger carries no dwell at all) to the
    corridor end, express legs included.
    """
    rows = []
    for rid, t_k, arrival, _ in served:
        wait = arrival - t_k
        if wait < -1e-9:
            raise ValueError(f"negative wait for request {rid}: {wait}")
        rows.append((rid, t_k, max(0.0, wait), max(0.0, route[4] - arrival - svc.t_s_prime), 0.0))
    return rows


def evaluate_amsod_trip(plan: RoutePlan, cost: CostParams, svc: ServiceConfig, requests: Sequence[Request]) -> tuple:
    """(c_o, passenger rows (id, t_k, wait, ivtt, access)) of one on-demand
    trip from its plan: per km over its path, and the rows of _amsod_rows."""
    t_k = {r.id: r.t_k for r in requests}
    served = [(p.request_id, t_k[p.request_id], p.time, p.point) for p in plan.pickups]
    route = (plan.waypoints[0][0], plan.waypoints[-1][0], plan.d_y, plan.express_legs, plan.end_time)
    return cost.gamma_o * (plan.d_x + plan.d_y + sum(length for length, _ in plan.express_legs)), _amsod_rows(served, route, svc)


def _boarding_rows(demand: Demand, sched: FixedSchedule, grid: GridGeometry, svc: ServiceConfig) -> tuple:
    """A row (boarding stop, ready time at the stop, id, access time,
    request time) per request, and the index of the first departure that
    reaches the stop by its ready time."""
    stops, dx = _nearest_stops(grid, demand.x)
    access = (dx + np.abs(demand.y)) / svc.v_w
    ready = demand.t_k + access
    wait_from = (ready - np.asarray(sched.stop_offsets)[stops]) / svc.headway
    first = np.maximum(0.0, np.ceil(wait_from - 1e-12)).astype(np.int64)
    rows = list(zip(stops.tolist(), ready.tolist(), demand.id.tolist(), access.tolist(), demand.t_k.tolist()))
    return rows, first.tolist()


def _fixed_rows(boarding, dep: float, sched: FixedSchedule, cost: CostParams, grid: GridGeometry) -> tuple:
    """(c_o, passenger rows) of one fixed-route trip departing at dep for
    its boarding rows, in boarding order: walk to the nearest stop, wait
    for the stop arrival, ride to the corridor end with one dwell per
    downstream stop; operator cost is the full corridor length."""
    offsets, rides = sched.stop_offsets, sched.ride_times
    rows = []
    for s, ready, rid, acc, t_k in boarding:
        wait = dep + offsets[s] - ready
        if wait < -1e-9:
            raise ValueError(f"request {rid} assigned to a departure it cannot catch")
        rows.append((rid, t_k, max(0.0, wait), rides[s], acc))
    return cost.gamma_o * grid.gl_x, rows


def evaluate_fixed_trip(
    requests: Sequence[Request], departure_index: int, sched: FixedSchedule, cost: CostParams, grid: GridGeometry, svc: ServiceConfig
) -> tuple:
    """(c_o, passenger rows) of one fixed-route trip for the passengers
    boarding it, costed row by row."""
    boarding, _ = _boarding_rows(_demand(requests), sched, grid, svc)
    return _fixed_rows(boarding, sched.departures[departure_index], sched, cost, grid)


def reference_fixed_records(scenario: Scenario, demand: Demand):
    """The fixed-route departure loop as a cohort loop, yielding per trip
    (c_o, rows, spilled ids), as simulator.simulate_requests' TripLogs
    hold them: each trip sorts the spill of the trip before with its new
    arrivals by (stop, ready time, id) tuple and boards the first capacity
    of them."""
    grid, svc, cost = scenario.grid, scenario.service, scenario.cost
    sched = build_schedule(grid, svc)
    rows, first = _boarding_rows(demand, sched, grid, svc)
    arrivals = [[] for _ in sched.departures]
    for row, i in zip(rows, first):
        if i < len(arrivals):
            arrivals[i].append(row)
    spilled = []
    for dep, new in zip(sched.departures, arrivals):
        cand = sorted(spilled + new)
        spilled = cand[svc.capacity :]
        yield (*_fixed_rows(cand[: svc.capacity], dep, sched, cost, grid), [c[2] for c in spilled])


def reference_window_metrics(scenario: Scenario, trips) -> dict:
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


@dataclass(frozen=True)
class ZoneSlice:
    zone: int  # 0-based
    x_lo: float
    x_hi: float
    express_length: float  # x_hi .. gl_x, run at v_h with no pickups
    requests: tuple


def partition_zonal(requests: Sequence[Request], grid: GridGeometry, n: int) -> list:
    """Split the corridor into n equal-length zones with exit express legs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sub, bounds = _sub_routes(_demand(requests), grid, n, 1)
    return [ZoneSlice(z, *bounds[z], tuple(requests[i] for i in np.flatnonzero(sub == z).tolist())) for z in range(n)]


def sampled_mean_access(grid: GridGeometry, svc: ServiceConfig, n_samples: int = 1_000_000, seed: SeedLike = 0) -> float:
    """Monte Carlo mean fixed-route access time (hours) under the
    simulator's demand distribution."""
    rng = np.random.default_rng(seed)
    x, y, _ = _sample_positions(grid, [0, n_samples], [rng])
    dist = _nearest_stops(grid, x)[1] + np.abs(y)
    return float(dist.mean() / svc.v_w)


def rectilinear_length(plan: RoutePlan) -> float:
    """Length of the plan's waypoint polyline, summed leg by leg."""
    total = 0.0
    for (x0, y0), (x1, y1) in zip(plan.waypoints, plan.waypoints[1:]):
        total += abs(x1 - x0) + abs(y1 - y0)
    return total


def n_opt_table(plan: ZonalPlan) -> int:
    """Brute-force argmin of the zonal cost table; ties take the smaller n."""
    table = plan.table
    return min(range(1, len(table) + 1), key=lambda n: (table[n - 1].total, n))


@dataclass(frozen=True)
class RequestLedger:
    """Every request lands in exactly one bucket."""

    counted_served: tuple
    uncounted_served: tuple
    unserved: tuple


def classify_requests(requests: Sequence[Request], logs: Sequence[TripLog], svc: ServiceConfig) -> RequestLedger:
    """Partition request ids into counted-served / uncounted-served /
    unserved-at-horizon."""
    served = {rid for log in logs for rid in log.served_ids}
    w0, w1 = svc.warmup_window
    counted, uncounted, unserved = [], [], []
    for req in requests:
        if req.id not in served:
            unserved.append(req.id)
        elif w0 <= req.t_k < w1:
            counted.append(req.id)
        else:
            uncounted.append(req.id)
    return RequestLedger(tuple(counted), tuple(uncounted), tuple(unserved))


def expected_ivtt_amsod(route_length: float, v_d: float, t_s_prime: float, k_j: float, md: float) -> float:
    """Expected on-demand in-vehicle time: adds the y-detour for the
    remaining pickups (k_j/2 of them on average, each costing md km) and
    their dwells."""
    if v_d <= 0:
        raise ValueError("non-positive speed")
    return route_length / (2.0 * v_d) + k_j * md / (2.0 * v_d) + t_s_prime * k_j / 2.0


def one_zone_cost(cost: CostParams, grid: GridGeometry, svc: ServiceConfig, md: float) -> tuple:
    """(wait, ride, operator) hourly cost of the single on-demand route,
    composed from the closed-form wait, headway variance and ride time at
    k_j = lambda * H rather than from the zonal formula."""
    lam, h = svc.demand_rate, svc.headway
    var = amsod_headway_variance(lam * h, md, svc.v_d, svc.t_s_prime)
    wait = cost.gamma_w * cost.vot * lam * expected_wait(h, var)
    ride = cost.gamma_r * cost.vot * lam * expected_ivtt_amsod(grid.gl_x, svc.v_d, svc.t_s_prime, lam * h, md)
    return wait, ride, cost.gamma_o * (grid.gl_x / h + lam * md)


def reference_trace(logs: Sequence[TripLog], svc: ServiceConfig, path: Union[str, Path]) -> None:
    """Per-trip waypoint trace as CSV: trip, time_h, x_km, y_km, event.

    Pickup waypoints use the recorded pickup times (then dwell once per
    point); plain corners are interpolated at street speed.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trip", "time_h", "x_km", "y_km", "event"])
        for log in logs:
            plan = log.plan
            if plan is None:
                continue
            # distinct pickup stops in visit order; a lattice point may be
            # revisited later as a plain corner, so match positionally
            stops = []
            for p in plan.pickups:
                if not stops or stops[-1][0] != p.point:
                    stops.append((p.point, p.time))
            nxt = 0

            def row(t, x, y, event):
                writer.writerow([log.trip_index, f"{t:.6f}", f"{x:.4f}", f"{y:.4f}", event])

            t = plan.depart_time
            prev = None
            for wp in plan.waypoints:
                if prev is not None:
                    t += (abs(wp[0] - prev[0]) + abs(wp[1] - prev[1])) / svc.v_d
                if nxt < len(stops) and wp == stops[nxt][0]:
                    t = stops[nxt][1]
                    row(t, wp[0], wp[1], "pickup")
                    row(t + svc.t_s_prime, wp[0], wp[1], "dwell")
                    t += svc.t_s_prime
                    nxt += 1
                else:
                    row(t, wp[0], wp[1], "move")
                prev = wp
            for length, _speed in plan.express_legs:
                row(plan.end_time, prev[0] + length, 0.0, "express")
