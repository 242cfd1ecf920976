"""Seeded demand generation, routing rules, and the dispatch timeline.

The corridor runs along x from 0 to gl_x; buses depart the terminal every
headway and always finish on the axis at the corridor end.  Two service
modes share each demand realization; each has its own departure loop, in
which trip i serves sub-route i mod n.  Both admit a request at the
first trip that may take it (_arrivals); what a trip does not serve
waits for the sub-route's next trip.  A trip yields a row (id, t_k, wait,
ivtt, access) per passenger in boarding order, its operator cost and a
lazy iterator over its spilled ids.  simulate_requests and run_timeline
(and so the trace) build TripLogs from these records and read the spill;
experiments.run_scenario only folds the rows into its window sums.  Both
sum in trip, then boarding order; reported numbers depend on that order.

Demand travels as columns (Demand: id, x, y, t_k, home_stop) from the
draw (sample_demand) to both loops.  Request objects appear only at
the public entry points: sample_requests builds them, and
simulate_requests and partition_parallel turn them back into columns
through one helper.  The arrays a draw reads from a grid are built once
per grid.

fixed
    One sub-route.  Passengers walk to the nearest stop and board the
    first departure arriving there after they do, capacity permitting:
    each trip takes the cohort whose first catchable departure it is plus
    the spill of the trip before, in stop order and first-come first.

amsod (semi-on-demand)
    One sub-route per zone or parallel band.  The bus detours to pickup
    points instead: each request snaps to the nearest street
    intersection, its x clamped into the sub-route's [x_lo, x_hi] so a
    pickup never lies behind the start or past the end of the bus's run.
    Requests are visited in x order; between consecutive points the bus
    turns off at the current cross-street, covers the y difference, then
    runs forward along the grid (y-then-x).  Several requests snapped to
    one cross-street are served in a single sweep, entering from the side
    whose extreme lies further from the axis.  Each sub-route keeps its
    pending requests in one dict from cross-street x to a list sorted by
    (y, id); a trip visits the streets by ascending x and reads each
    sweep from its list.  A request is served by the first trip whose
    arrival at its pickup point is no earlier than its request time (the
    point must still be ahead of the bus); otherwise it waits for the next
    trip, as do passengers beyond capacity.

    Planning is causal.  A trip departing at dep on the sub-route
    [x_lo, x_hi] may take a request only if t_k <= t_bound, with

        t_bound = dep + (x_hi - x_lo + (capacity + 1) * 2 * y_hat) / v_d
                      + capacity * t_s'

    where y_hat is the grid's largest catchment half-width max_gl_y
    snapped to the street lattice.  t_bound reads no demand.  For requests
    inside the catchment, as sampled, it bounds every arrival of the trip
    (at most capacity dwells and capacity + 1 cross-street moves of at most
    2 * y_hat precede one), so the trip never misses a request it could
    board in time, while its plan (which requests it visits, and from which
    end it sweeps a cross-street) never depends on requests made after
    t_bound.

All rules are deterministic given (scenario, mode, seed); replications
are seeded through independent substreams so results do not depend on
execution order or worker count.
"""
from __future__ import annotations

import csv
import math
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .model import (
    CostParams,
    GridGeometry,
    Pickup,
    PassengerOutcome,
    Request,
    RoutePlan,
    Scenario,
    ServiceConfig,
    TripCosts,
    require_valid,
)

_EPS = 1e-9
_TIE = 1e-9  # snap tie tolerance on the fractional block position

SeedLike = Union[int, Sequence[int], np.random.Generator, np.random.SeedSequence]


@dataclass(frozen=True)
class FixedSchedule:
    """Departures every headway plus deterministic stop arrival offsets."""

    departures: tuple  # terminal departure times, hours
    stop_offsets: tuple  # travel + dwell offset from departure to each stop
    ride_times: tuple  # in-vehicle time from each stop to the corridor end


@dataclass(frozen=True)
class TripLog:
    trip_index: int
    mode: str  # "fixed" | "amsod"
    depart_time: float
    plan: Optional[RoutePlan]  # amsod only
    costs: TripCosts
    served_ids: tuple
    spilled_ids: tuple  # assigned but deferred to the next trip


@dataclass(frozen=True)
class RequestLedger:
    """Every request lands in exactly one bucket."""

    counted_served: tuple
    uncounted_served: tuple
    unserved: tuple


def departure_times(svc: ServiceConfig) -> tuple:
    n = math.ceil((svc.horizon - _EPS) / svc.headway)
    return tuple(i * svc.headway for i in range(n))


def build_schedule(grid: GridGeometry, svc: ServiceConfig) -> FixedSchedule:
    stops_x, n = grid.stop_chainages, grid.n_stops
    offsets = tuple(c / svc.v_d + svc.t_s * s for s, c in enumerate(stops_x))
    # one dwell per downstream stop
    rides = tuple((grid.gl_x - c) / svc.v_d + svc.t_s * (n - s - 1) for s, c in enumerate(stops_x))
    return FixedSchedule(departures=departure_times(svc), stop_offsets=offsets, ride_times=rides)


# --- demand ------------------------------------------------------------------


class Demand(NamedTuple):
    """One demand realization as columns named like the Request fields."""

    id: np.ndarray  # int
    x: np.ndarray
    y: np.ndarray
    t_k: np.ndarray
    home_stop: np.ndarray  # int


def _demand(requests: Sequence[Request]) -> Demand:
    """The columns of the given Requests, in their order."""
    return Demand(*(np.fromiter(map(attrgetter(f), requests), int if f in ("id", "home_stop") else float) for f in Demand._fields))


@lru_cache(maxsize=16)
def _grid_arrays(grid: GridGeometry) -> tuple:
    """(stop CDF, chainages, catchment half-widths) of a grid, read-only.
    Generator.choice builds the same CDF, so the stop draws match it."""
    weights = np.asarray(grid.stop_weights, dtype=float)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    arrays = (cdf, np.asarray(grid.stop_chainages), np.asarray(grid.gl_y))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _sample_positions(grid: GridGeometry, n: int, rng: np.random.Generator):
    """Draw n demand points: stop by weight, then uniform around the stop,
    redrawn until its rectilinear offset fits the catchment, on the corridor."""
    cdf, chainage, gl_y = _grid_arrays(grid)
    stops = cdf.searchsorted(rng.random(n), side="right")
    chain, gl = chainage[stops], gl_y[stops]
    x, y, left = np.empty(n), np.empty(n), np.arange(n)  # left: points still to draw
    while left.size:
        dx = rng.uniform(-grid.d_xs / 2.0, grid.d_xs / 2.0, left.size)
        g = gl[left]
        y[left] = yt = rng.uniform(-g, g)
        x[left] = xt = chain[left] + dx
        left = left[(np.abs(dx) + np.abs(yt) > g) | (xt < 0.0) | (xt > grid.gl_x)]
    return x, y, stops


def sample_demand(grid: GridGeometry, svc: ServiceConfig, seed: SeedLike) -> Demand:
    """Homogeneous Poisson request process over [0, horizon] as columns,
    deterministic given (seed, scenario); ids follow request time order."""
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(svc.demand_rate * svc.horizon))
    times = np.sort(rng.uniform(0.0, svc.horizon, n))
    x, y, stops = _sample_positions(grid, n, rng)
    return Demand(np.arange(n), x, y, times, stops)


def sample_requests(grid: GridGeometry, svc: ServiceConfig, seed: SeedLike) -> list:
    """The draw of sample_demand as a list of Requests."""
    return list(map(Request, *(column.tolist() for column in sample_demand(grid, svc, seed))))


def _nearest_stops(grid: GridGeometry, x: np.ndarray) -> tuple:
    """(nearest stop, x distance to it) for each x by rectilinear
    distance; ties go downstream."""
    chainage = _grid_arrays(grid)[1]
    pos = np.searchsorted(chainage, x)
    pos_lo = np.clip(pos - 1, 0, grid.n_stops - 1)
    pos_hi = np.clip(pos, 0, grid.n_stops - 1)
    left = np.abs(x - chainage[pos_lo])
    right = np.abs(chainage[pos_hi] - x)
    down = right <= left
    return np.where(down, pos_hi, pos_lo), np.where(down, right, left)


# --- street snapping ---------------------------------------------------------


def _snap(values: np.ndarray, spacing: float, tie_toward_zero: bool) -> np.ndarray:
    """Nearest multiple of spacing for each value."""
    r = values / spacing
    f = np.floor(r)
    frac = r - f
    k = np.where(frac > 0.5, f + 1.0, f)
    if tie_toward_zero:
        tie = np.where(values >= 0, f, f + 1.0)  # candidate nearer the axis
    else:
        tie = f  # backward in x
    k = np.where(np.abs(frac - 0.5) < _TIE, tie, k)
    return (k + 0.0) * spacing  # + 0.0 turns -0.0 into 0.0


def snap_to_streets(point: tuple, grid: GridGeometry) -> tuple:
    """Snap a point to the nearest street intersection.

    Midpoint ties go toward the route axis in y and backward in x, so
    resnapping is a fixed point.
    """
    sx = _snap(np.array([point[0]], float), grid.l_x, tie_toward_zero=False)
    return sx.item(), _snap(np.array([point[1]], float), grid.l_y, tie_toward_zero=True).item()


# --- on-demand routing -------------------------------------------------------
#
# Candidate tuples are (sx, sy, t_k, request_id).

_Y, _Y_ID = itemgetter(1), itemgetter(1, 3)


def _spill(cands, t: float, bx: float, by: float, last_arrival: float, inv_v: float):
    """Lazily, the ids of the candidates a full bus leaves that are ready
    at its last point (it no longer moves); cands reads live street lists."""
    for sx, sy, tk, rid in cands:
        if tk <= last_arrival or tk <= (last_arrival if sx == bx and sy == by else t + (abs(sy - by) + (sx - bx)) * inv_v) + 1e-12:
            yield rid


def _drive(streets: dict, depart: float, svc: ServiceConfig, start_x: float, end_x: float, express_length: float, capacity: int) -> tuple:
    """Drive one trip from (start_x, 0) to the axis at end_x, then
    express_length km on at v_h, serving the pending candidates of streets
    (cross-street x -> candidates sorted by (y, id)) in visit order: streets
    by ascending x, each in one monotone y sweep from the end with the
    larger |y| (the positive end on a tie), ids ascending within a point
    (the sort is stable).

    A candidate whose request time is later than the bus's arrival at its
    point is left for the next trip; ready candidates beyond capacity are
    spilled.  Returns (served, spilled_ids, route): served records
    (request_id, t_k, arrival, point) in boarding order, a lazy _spill that
    only trip logs read, and (start_x, end_x, d_y, express_legs, end_time).
    """
    t = last_arrival = depart
    bx, by = start_x, 0.0
    served, d_y = [], 0.0
    inv_v = 1.0 / svc.v_d
    cands = chain.from_iterable(sorted(m, key=_Y, reverse=True) if abs(m[-1][1]) >= abs(m[0][1]) else m for _, m in sorted(streets.items()))
    for sx, sy, tk, rid in cands:
        same_point = bool(served) and sx == bx and sy == by
        if same_point:
            arrival = last_arrival  # boards during the same dwell
        else:
            arrival = t + (abs(sy - by) + (sx - bx)) * inv_v
        if tk > arrival + 1e-12:
            continue  # requested after the bus passes; next trip
        if not same_point:
            d_y += abs(sy - by)
            t = arrival + svc.t_s_prime
            bx, by = sx, sy
            last_arrival = arrival
        served.append((rid, tk, arrival, (sx, sy)))
        if len(served) == capacity:
            break
    spilled = _spill(cands, t, bx, by, last_arrival, inv_v)  # empty unless full
    d_y += abs(by)
    end_time = t + (abs(by) + (end_x - bx)) * inv_v
    express_legs = ()
    if express_length > _EPS:
        express_legs = ((express_length, svc.v_h),)
        end_time += express_length / svc.v_h
    return served, spilled, (start_x, end_x, d_y, express_legs, end_time)


def _route_plan(depart: float, served, route) -> RoutePlan:
    """The RoutePlan of a trip driven by _drive: y-then-x moves through the
    served points, then to the axis at the corridor end."""
    start_x, end_x, d_y, express_legs, end_time = route
    points = [point for _, _, _, point in served]
    dwells = [i == 0 or p != points[i - 1] for i, p in enumerate(points)]  # consecutive passengers share one
    waypoints, (bx, by) = [(start_x, 0.0)], (start_x, 0.0)
    for sx, sy in points + [(end_x, 0.0)]:
        if sy != by:
            waypoints.append((bx, sy))
        if sx != bx:
            waypoints.append((sx, sy))
        bx, by = sx, sy
    n = sum(dwells)
    pickups = tuple(
        Pickup(request_id=rid, time=arrival, point=point, remaining_stops=n - k)
        for (rid, _, arrival, point), k in zip(served, accumulate(dwells))
    )
    return RoutePlan(
        waypoints=tuple(waypoints),
        d_x=end_x - start_x,
        d_y=d_y,
        pickups=pickups,
        express_legs=express_legs,
        depart_time=depart,
        end_time=end_time,
    )


def _trip_costs(cost: CostParams, c_o: float, rows) -> TripCosts:
    """TripCosts of one trip from its passenger rows (id, t_k, wait, ivtt,
    access).  Sums run left to right in boarding order; reported costs
    depend on that order."""
    outcomes = tuple(PassengerOutcome(wait=w, ivtt=v, access=a) for _, _, w, v, a in rows)
    return TripCosts(
        c_a=cost.gamma_a * cost.vot * sum(o.access for o in outcomes),
        c_w=cost.gamma_w * cost.vot * sum(o.wait for o in outcomes),
        c_r=cost.gamma_r * cost.vot * sum(o.ivtt for o in outcomes),
        c_o=c_o,
        per_passenger=outcomes,
        k_j=len(outcomes),
    )


def _amsod_rows(served, route, cost: CostParams, svc: ServiceConfig) -> tuple:
    """(c_o, passenger rows) of one on-demand trip from its served records
    (request_id, t_k, arrival, point) and route.

    Access is identically zero.  Wait runs from request time to the bus's
    arrival at the pickup point; in-vehicle time from when the bus leaves
    that point (so a lone passenger carries no dwell at all) to the
    corridor end, express legs included.  Operator cost is per km over
    the whole path.
    """
    start_x, end_x, d_y, express_legs, end_time = route
    rows = []
    for rid, t_k, arrival, _ in served:
        wait = arrival - t_k
        if wait < -1e-9:
            raise ValueError(f"negative wait for request {rid}: {wait}")
        rows.append((rid, t_k, max(0.0, wait), max(0.0, end_time - arrival - svc.t_s_prime), 0.0))
    return cost.gamma_o * (end_x - start_x + d_y + sum(length for length, _ in express_legs)), rows


# --- fixed-route evaluation --------------------------------------------------


def _boarding_rows(demand: Demand, sched: FixedSchedule, grid: GridGeometry, svc: ServiceConfig) -> tuple:
    """One array pass over the demand: a row (boarding stop, ready time at
    the stop, id, access time, request time) per request, and the index of
    the first departure that reaches the stop by its ready time."""
    stops, dx = _nearest_stops(grid, demand.x)
    access = (dx + np.abs(demand.y)) / svc.v_w
    ready = demand.t_k + access
    wait_from = (ready - np.asarray(sched.stop_offsets)[stops]) / svc.headway
    first = np.maximum(0.0, np.ceil(wait_from - 1e-12)).astype(np.int64)
    rows = list(zip(stops.tolist(), ready.tolist(), demand.id.tolist(), access.tolist(), demand.t_k.tolist()))
    return rows, first.tolist()


def _fixed_rows(boarding, dep: float, sched: FixedSchedule, cost: CostParams, grid: GridGeometry) -> tuple:
    """(c_o, passenger rows) of one fixed-route trip departing at dep for
    its boarding rows, in boarding order.

    Per passenger: walk to the nearest stop, wait for the stop arrival,
    then ride to the corridor end with one dwell per downstream stop.
    Operator cost is the full corridor length regardless of boardings.
    """
    offsets, rides = sched.stop_offsets, sched.ride_times
    rows = []
    for s, ready, rid, acc, t_k in boarding:
        wait = dep + offsets[s] - ready
        if wait < -1e-9:
            raise ValueError(f"request {rid} assigned to a departure it cannot catch")
        rows.append((rid, t_k, max(0.0, wait), rides[s], acc))
    return cost.gamma_o * grid.gl_x, rows


# --- request partitioning ----------------------------------------------------


def _sub_routes(demand: Demand, grid: GridGeometry, n_zones: int, n_parallel: int) -> tuple:
    """(sub-route of each request, (x_lo, x_hi, express length) of each):
    equal zones along x if n_zones > 1, else equal bands of each stop's
    catchment; an edge goes to the band centred nearer the axis (a tie to
    the lower band)."""
    if n_zones > 1:
        length = grid.gl_x / n_zones
        bounds = [(z * length, (z + 1) * length, grid.gl_x - (z + 1) * length) for z in range(n_zones)]
        return np.minimum(n_zones - 1, (demand.x / length).astype(int)), bounds
    bounds = [(0.0, grid.gl_x, 0.0)] * n_parallel
    if n_parallel == 1:
        return np.zeros(len(demand.x), int), bounds
    gl = _grid_arrays(grid)[2][demand.home_stop]
    w = 2.0 * gl / n_parallel
    r = (demand.y + gl) / w
    k = np.round(r)
    edge = (np.abs(r - k) < 1e-9) & (0 < k) & (k < n_parallel)
    lower = 2 * k >= n_parallel  # edge k lies on or above the axis
    return np.clip(np.where(edge, np.where(lower, k - 1, k), np.floor(r)), 0, n_parallel - 1).astype(int), bounds


def partition_parallel(requests: Sequence[Request], grid: GridGeometry, n_p: int) -> list:
    """Split requests into n_p equal-width y bands (per-stop catchment)."""
    if n_p < 1:
        raise ValueError("n_p must be >= 1")
    sub, _ = _sub_routes(_demand(requests), grid, 1, n_p)
    return [[requests[i] for i in np.flatnonzero(sub == k).tolist()] for k in range(n_p)]


# --- dispatch ----------------------------------------------------------------


def _arrivals(items, first, n_trips: int) -> list:
    """The items grouped by trip: item j arrives at trip first[j], and an
    index >= n_trips never arrives."""
    arrivals = [[] for _ in range(n_trips)]
    for item, i in zip(items, first):
        if i < n_trips:
            arrivals[i].append(item)
    return arrivals


def _fixed_records(scenario: Scenario, demand: Demand):
    """Each trip boards, up to capacity, the spill of the trip before and
    the rows whose first catchable departure it is, in stop order and
    first come first."""
    grid, svc, cost = scenario.grid, scenario.service, scenario.cost
    sched = build_schedule(grid, svc)
    spilled = []
    for dep, new in zip(sched.departures, _arrivals(*_boarding_rows(demand, sched, grid, svc), len(sched.departures))):
        cand = sorted(spilled + new)
        spilled = cand[svc.capacity :]
        yield (*_fixed_rows(cand[: svc.capacity], dep, sched, cost, grid), (c[2] for c in spilled), None, dep)


def _amsod_records(scenario: Scenario, demand: Demand):
    """Each trip drives its sub-route's pending candidates, kept in one dict
    from cross-street x to a list sorted by (y, id); a request arrives at
    the first trip of its sub-route whose t_bound it does not exceed."""
    grid, svc, cost = scenario.grid, scenario.service, scenario.cost
    sub, bounds = _sub_routes(demand, grid, svc.n_zones, svc.n_parallel)
    sx_all = _snap(demand.x, grid.l_x, tie_toward_zero=False)
    sy_all = _snap(demand.y, grid.l_y, tie_toward_zero=True)
    cap, n, deps = svc.capacity, len(bounds), departure_times(svc)
    y_hat = snap_to_streets((0.0, grid.max_gl_y), grid)[1]  # no request snaps further out
    sx, first = np.empty(len(sub)), np.empty(len(sub), np.int64)
    for k, (x_lo, x_hi, _) in enumerate(bounds):
        mine = sub == k
        sx[mine] = np.minimum(np.maximum(sx_all[mine], x_lo), x_hi)  # kept inside the run
        # at most cap dwells and cap + 1 cross-street moves precede any arrival
        reach = (x_hi - x_lo + (cap + 1) * 2.0 * y_hat) / svc.v_d + cap * svc.t_s_prime
        first[mine] = k + n * np.searchsorted(np.asarray(deps[k::n]) + reach, demand.t_k[mine])  # t_k <= t_bound
    arrivals = _arrivals(zip(sx.tolist(), sy_all.tolist(), demand.t_k.tolist(), demand.id.tolist()), first.tolist(), len(deps))
    streets = [{} for _ in bounds]
    for i, (dep, new) in enumerate(zip(deps, arrivals)):
        pending, (start_x, end_x, express_len) = streets[i % n], bounds[i % n]
        for c in new:
            insort(pending.setdefault(c[0], []), c, key=_Y_ID)
        served, spilled, route = _drive(pending, dep, svc, start_x, end_x, express_len, cap)
        gone = {rec[0] for rec in served}
        for x in {rec[3][0] for rec in served}:
            pending[x] = [c for c in pending[x] if c[3] not in gone]
            if not pending[x]:
                del pending[x]
        yield (*_amsod_rows(served, route, cost, svc), spilled, (served, route), dep)


def trip_records(scenario: Scenario, mode: str, demand: Demand):
    """The departure loop of one mode over a demand realization.  It yields
    per trip (c_o, rows, spilled_ids, drive, depart time): the operator
    cost, the passenger rows (id, t_k, wait, ivtt, access) in boarding
    order, a spilled-id iterator valid only until the loop resumes and, on
    demand, _drive's (served, route).  Unvalidated: callers validate."""
    if mode not in ("fixed", "amsod"):
        raise ValueError(f"unknown mode {mode!r}")
    return (_fixed_records if mode == "fixed" else _amsod_records)(scenario, demand)


def _trip_logs(scenario: Scenario, mode: str, demand: Demand):
    """The TripLogs of trip_records over a demand realization."""
    for i, (c_o, rows, spilled_ids, drive, dep) in enumerate(trip_records(scenario, mode, demand)):
        plan = None if drive is None else _route_plan(dep, *drive)
        costs = _trip_costs(scenario.cost, c_o, rows)
        yield TripLog(i, mode, dep, plan, costs, tuple(r[0] for r in rows), tuple(spilled_ids))


def simulate_requests(scenario: Scenario, mode: str, requests: Sequence[Request]) -> list:
    """Run the dispatch timeline for one mode over a given demand
    realization (the common-random-numbers entry point); returns TripLogs."""
    require_valid(scenario)
    return list(_trip_logs(scenario, mode, _demand(requests)))


def run_timeline(scenario: Scenario, mode: str, seed: SeedLike) -> list:
    """Sample demand and run the dispatch timeline; returns TripLogs."""
    require_valid(scenario)
    return list(_trip_logs(scenario, mode, sample_demand(scenario.grid, scenario.service, seed)))


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


def write_trace(logs: Sequence[TripLog], svc: ServiceConfig, path: Union[str, Path]) -> None:
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
