"""Seeded demand generation, routing rules, and the dispatch timeline.

The corridor runs along x from 0 to gl_x; buses depart the terminal every
headway and always finish on the axis at the corridor end.  Two service
modes share each demand realization; each has its own departure loop, in
which trip i serves sub-route i mod n.  Both find with array operations
the first trip that may take each request; what a trip does not serve
waits for the sub-route's next trip.  Each mode costs its passengers in
one place: _fixed_columns, and _amsod_columns over the trips _amsod_drives
yields, return each trip's operator cost, the trip cuts, the boarded
passengers' (id, t_k, wait, ivtt, access) columns in trip, then boarding
order, and per trip (spilled ids, drive, depart time).  run_scenario folds
the columns (only experiments._window_metrics weights them into costs,
summing in that order with np.cumsum; reported numbers depend on it) and
never reads a spill.  trip_records slices the columns into each trip's
rows, yielded with its operator cost and its spilled ids as a list;
simulate_requests and run_timeline (and so the trace) keep them in TripLogs.

Demand travels as columns (Demand: id, x, y, t_k, home_stop) from the
draw (sample_demand) to both loops.  Request objects appear only at
the public entry points: sample_requests builds them, and
simulate_requests and partition_parallel turn them back into columns
through one helper.  The arrays a draw reads from a grid are built once
per grid.

fixed
    One sub-route.  Passengers walk to the nearest stop and board the
    first departure arriving there after they do, capacity permitting.
    The requests are sorted once by (stop, ready time, id); if no trip's
    new arrivals exceed capacity each boards its first catchable
    departure, else trip j takes the first capacity requests in that
    order that reached it and are not yet aboard.

amsod (semi-on-demand)
    One sub-route per zone or parallel band.  The bus detours to pickup
    points instead: each request snaps to the nearest street
    intersection, its x clamped into the sub-route's [x_lo, x_hi] so a
    pickup never lies behind the start or past the end of the bus's run.
    Requests are visited in x order; between consecutive points the bus
    turns off at the current cross-street, covers the y difference, then
    runs forward along the grid (y-then-x, _walk).  Several requests snapped to
    one cross-street are served in a single sweep, entering from the side
    whose extreme lies further from the axis.  Each sub-route keeps its
    pending requests in one dict from cross-street x to a sorted list of
    candidates (sx, sy, request_id, t_k); on one street sx is shared and
    ids are unique, so plain tuple order is (y, id) order.  A trip visits
    the streets by ascending x and reads each sweep from its list.  A
    request is served by the first trip whose arrival at its pickup point
    is no earlier than its request time (the point must still be ahead of
    the bus); otherwise it waits for the next trip, as do passengers
    beyond capacity.

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
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .model import (
    GridGeometry,
    Pickup,
    Request,
    RoutePlan,
    Scenario,
    ServiceConfig,
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
    """One trip of trip_records, its spill read."""

    trip_index: int
    plan: Optional[RoutePlan]  # amsod only
    c_o: float  # operator cost
    rows: tuple  # (id, t_k, wait, ivtt, access) per passenger, boarding order
    served_ids: tuple  # the rows' ids
    spilled_ids: tuple  # assigned but deferred to the next trip


def departure_times(svc: ServiceConfig) -> tuple:
    n = math.ceil((svc.horizon - _EPS) / svc.headway)
    return tuple(i * svc.headway for i in range(n))


@lru_cache(maxsize=16)
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
    """(stop CDF, chainages, catchment half-widths, y_hat) of a grid, the
    arrays read-only; y_hat is max_gl_y snapped to the street lattice.
    Generator.choice builds the same CDF, so the stop draws match it."""
    weights = np.asarray(grid.stop_weights, dtype=float)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    arrays = (cdf, np.asarray(grid.stop_chainages), np.asarray(grid.gl_y))
    for a in arrays:
        a.flags.writeable = False
    return (*arrays, snap_to_streets((0.0, grid.max_gl_y), grid)[1])


def _sample_positions(grid: GridGeometry, n: int, rng: np.random.Generator):
    """Draw n demand points: stop by weight, then uniform around the stop,
    redrawn until its rectilinear offset fits the catchment, on the corridor.
    A round over m points maps one rng.random(2 * m) as Generator.uniform maps
    the same doubles (low + (high - low) * u), so dx and y are bitwise
    uniform(-h, h, m) then uniform(-g, g), generator state included, without
    uniform's array-bound overhead; this is numpy's arithmetic (CI pins 2.4.6)."""
    cdf, chainage, gl_y, _ = _grid_arrays(grid)
    stops = cdf.searchsorted(rng.random(n), side="right")
    chain, gl, h = chainage[stops], gl_y[stops], grid.d_xs / 2.0
    x, y, left = np.empty(n), np.empty(n), np.arange(n)  # left: points still to draw
    while m := left.size:
        u, g = rng.random(2 * m), gl[left]
        dx = -h + (h - -h) * u[:m]
        y[left] = yt = -g + (g - -g) * u[m:]
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
    pos_lo = np.maximum(pos - 1, 0)  # np.clip costs several times np.maximum on small arrays
    pos_hi = np.minimum(pos, grid.n_stops - 1)
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
# Candidate tuples are (sx, sy, request_id, t_k).  One cross-street's
# candidates share sx and ids are unique, so plain tuple order is the
# (y, id) sweep order and t_k is never compared.

_Y = itemgetter(1)


def _spill(cands, t: float, bx: float, by: float, last_arrival: float, inv_v: float):
    """Lazily, the ids of the candidates a full bus leaves that are ready
    at its last point (it no longer moves).  cands reads the street lists
    in place, so the loop removes served candidates only when it resumes."""
    for sx, sy, rid, tk in cands:
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
    only trip_records reads, and (start_x, end_x, d_y, express_legs, end_time).
    """
    t = last_arrival = depart
    bx, by = start_x, 0.0
    served, d_y = [], 0.0
    inv_v = 1.0 / svc.v_d
    cands = chain.from_iterable(sorted(m, key=_Y, reverse=True) if len(m) > 1 and abs(m[-1][1]) >= abs(m[0][1]) else m for _, m in sorted(streets.items()))
    for sx, sy, rid, tk in cands:
        arrival = t + (abs(sy - by) + (sx - bx)) * inv_v  # at the bus's point this is t >= last_arrival, so it screens same-point boardings too
        if tk > arrival + 1e-12:
            continue  # requested after the bus passes; next trip
        if served and sx == bx and sy == by:
            if tk > last_arrival + 1e-12:
                continue
            arrival = last_arrival  # boards during the same dwell
        else:
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


def _walk(start_x: float, points: Sequence[tuple], end_x: float):
    """The y-then-x lattice path of a trip from (start_x, 0) through points
    (cover the y difference on the current cross-street, then run forward in
    x) to the axis at end_x.  Yields (waypoint, index of the first point it
    reaches, or None at a plain corner and at the end), the start first; a
    point where the bus already is adds no waypoint."""
    bx, by = start_x, 0.0
    yield (bx, by), 0 if points and points[0] == (bx, by) else None  # a first pickup at the start
    for i, (sx, sy) in enumerate([*points, (end_x, 0.0)]):
        if sy != by and sx != bx:
            yield (bx, sy), None
        if sy != by or sx != bx:
            yield (sx, sy), i if i < len(points) else None
        bx, by = sx, sy


def _route_plan(depart: float, served, route) -> RoutePlan:
    """The RoutePlan of a trip driven by _drive: the _walk through the
    served points, then to the axis at the corridor end."""
    start_x, end_x, d_y, express_legs, end_time = route
    points = [point for _, _, _, point in served]
    dwells = [i == 0 or p != points[i - 1] for i, p in enumerate(points)]  # consecutive passengers share one
    n = sum(dwells)
    pickups = tuple(
        Pickup(request_id=rid, time=arrival, point=point, remaining_stops=n - k)
        for (rid, _, arrival, point), k in zip(served, accumulate(dwells))
    )
    return RoutePlan(
        waypoints=tuple(wp for wp, _ in _walk(start_x, points, end_x)),
        d_x=end_x - start_x,
        d_y=d_y,
        pickups=pickups,
        express_legs=express_legs,
        depart_time=depart,
        end_time=end_time,
    )


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
    k = np.rint(r)  # half to even, as np.round
    edge = (np.abs(r - k) < 1e-9) & (0 < k) & (k < n_parallel)
    lower = 2 * k >= n_parallel  # edge k lies on or above the axis
    return np.minimum(np.maximum(np.where(edge, np.where(lower, k - 1, k), np.floor(r)), 0), n_parallel - 1).astype(int), bounds


def partition_parallel(requests: Sequence[Request], grid: GridGeometry, n_p: int) -> list:
    """Split requests into n_p equal-width y bands (per-stop catchment)."""
    if n_p < 1:
        raise ValueError("n_p must be >= 1")
    sub, _ = _sub_routes(_demand(requests), grid, 1, n_p)
    return [[requests[i] for i in np.flatnonzero(sub == k).tolist()] for k in range(n_p)]


# --- dispatch ----------------------------------------------------------------


def _fixed_columns(scenario: Scenario, demand: Demand) -> tuple:
    """The fixed route's departure loop.  Each trip boards, up to capacity,
    the spill of the trip before and the requests whose first catchable
    departure it is, in (stop, ready, id) key order; its operator cost is
    the full corridor length regardless of boardings.  Returns each trip's
    operator cost, the trip cuts, the boarded passengers' (id, t_k, wait,
    ivtt, access) columns in trip, then boarding order, and lazily per trip
    (spilled ids in key order, None, depart time), which run_scenario never
    reads."""
    grid, svc = scenario.grid, scenario.service
    sched = build_schedule(grid, svc)
    n, cap = len(sched.departures), svc.capacity
    stops, dx = _nearest_stops(grid, demand.x)
    access = (dx + np.abs(demand.y)) / svc.v_w
    ready = demand.t_k + access
    offsets = np.asarray(sched.stop_offsets)[stops]
    first = np.maximum(0.0, np.ceil((ready - offsets) / svc.headway - 1e-12)).astype(np.int64)
    key = np.lexsort((demand.id, ready, stops))  # the (stop, ready, id) order
    first = first[key]
    trip = np.minimum(first, n)  # per row in key order; n: never boards
    if (np.bincount(trip, minlength=n + 1)[:n] > cap).any():
        # trip j takes the first cap rows in key order that reached it
        waiting, trip = trip < n, np.full(len(key), n)
        for j in range(n):
            take = np.flatnonzero(waiting & (first <= j))[:cap]
            trip[take] = j
            waiting[take] = False
    by_trip = np.argsort(trip, kind="stable")  # by trip, then key order
    cuts = np.searchsorted(trip[by_trip], np.arange(n + 1)).tolist()
    boarded = by_trip[: cuts[n]]
    board = key[boarded]  # demand indices in boarding order
    wait = np.asarray(sched.departures)[trip[boarded]] + offsets[board] - ready[board]
    late = np.flatnonzero(wait < -1e-9)
    if late.size:
        raise ValueError(f"request {demand.id[board[late[0]]]} assigned to a departure it cannot catch")
    # object arrays: rows and spills share one int per id and one float per stop's ride
    ids, rides = demand.id.astype(object), np.array(sched.ride_times, dtype=object)
    trips = ((ids[key[(first <= j) & (trip > j)]].tolist(), None, dep) for j, dep in enumerate(sched.departures))
    passengers = ids[board], demand.t_k[board], np.maximum(wait, 0.0), rides[stops[board]], access[board]
    return np.full(n, scenario.cost.gamma_o * grid.gl_x), cuts, passengers, trips


def _amsod_drives(scenario: Scenario, demand: Demand):
    """Each trip drives its sub-route's pending candidates, kept in one dict
    from cross-street x to a sorted list of (sx, sy, request_id, t_k); a
    request arrives at the first trip of its sub-route whose t_bound it
    does not exceed.  Yields (c_o, served, spilled, route, dep) per trip."""
    grid, svc = scenario.grid, scenario.service
    sub, bounds = _sub_routes(demand, grid, svc.n_zones, svc.n_parallel)
    sx_all = _snap(demand.x, grid.l_x, tie_toward_zero=False)
    sy_all = _snap(demand.y, grid.l_y, tie_toward_zero=True)
    cap, n, deps = svc.capacity, len(bounds), build_schedule(grid, svc).departures
    y_hat = _grid_arrays(grid)[3]  # no request snaps further out
    sx, first = np.empty(len(sub)), np.empty(len(sub), np.int64)
    for k, (x_lo, x_hi, _) in enumerate(bounds):
        mine = sub == k
        sx[mine] = np.minimum(np.maximum(sx_all[mine], x_lo), x_hi)  # kept inside the run
        # at most cap dwells and cap + 1 cross-street moves precede any arrival
        reach = (x_hi - x_lo + (cap + 1) * 2.0 * y_hat) / svc.v_d + cap * svc.t_s_prime
        first[mine] = k + n * np.searchsorted(np.asarray(deps[k::n]) + reach, demand.t_k[mine])  # t_k <= t_bound
    order = np.argsort(first, kind="stable")  # by arrival trip, then id
    cands = list(zip(sx[order].tolist(), sy_all[order].tolist(), demand.id[order].tolist(), demand.t_k[order].tolist()))
    cuts = np.searchsorted(first[order], np.arange(len(deps) + 1)).tolist()
    streets = [{} for _ in bounds]
    for i, dep in enumerate(deps):
        pending, (start_x, end_x, express_len) = streets[i % n], bounds[i % n]
        for c in cands[cuts[i] : cuts[i + 1]]:
            insort(pending.setdefault(c[0], []), c)
        served, spilled, route = _drive(pending, dep, svc, start_x, end_x, express_len, cap)
        yield scenario.cost.gamma_o * (end_x - start_x + route[2] + sum(length for length, _ in route[3])), served, spilled, route, dep
        for rid, tk, _, (x, y) in served:  # after the yield: spilled reads the lists as the trip left them
            m = pending[x]
            del m[bisect_left(m, (x, y, rid, tk))]
            if not m:
                del pending[x]


def _amsod_columns(scenario: Scenario, drives) -> tuple:
    """_fixed_columns' four items on demand, from the trips _amsod_drives
    yields; per trip, its (spilled, (served, route), depart time) as given.

    Access is identically zero.  Wait runs from request time to the bus's
    arrival at the pickup point; in-vehicle time from when the bus leaves
    that point (so a lone passenger carries no dwell at all) to the
    corridor end, express legs included.
    """
    c_o, served, end, cuts, trips = [], [], [], [0], []
    for trip_c_o, trip, spilled, route, dep in drives:
        c_o.append(trip_c_o)
        served += trip
        end += [route[4]] * len(trip)
        cuts.append(len(served))
        trips.append((spilled, (trip, route), dep))
    ids = np.fromiter(map(itemgetter(0), served), object, len(served))  # the candidates' ints, as in the spills
    t_k, arrival = (np.fromiter(map(itemgetter(i), served), float, len(served)) for i in (1, 2))
    wait = arrival - t_k
    late = np.flatnonzero(wait < -1e-9)
    if late.size:
        raise ValueError(f"negative wait for request {ids[late[0]]}: {wait[late[0]]}")
    ivtt = np.maximum(np.array(end) - arrival - scenario.service.t_s_prime, 0.0)  # max(0.0, x) as np.maximum(x, 0.0)
    return np.array(c_o), cuts, (ids, t_k, np.maximum(wait, 0.0), ivtt, np.zeros(len(served))), trips


def trip_records(scenario: Scenario, mode: str, demand: Demand):
    """The departure loop of one mode over a demand realization, run when
    called.  Yields per trip (c_o, rows, spilled_ids, drive, depart time):
    the operator cost, the passenger rows (id, t_k, wait, ivtt, access) in
    boarding order, sliced from the columns run_scenario folds, the list of
    spilled ids and, on demand, _drive's (served, route).  Unvalidated:
    callers validate."""
    if mode == "fixed":
        c_o, cuts, passengers, trips = _fixed_columns(scenario, demand)
    elif mode == "amsod":  # each spill read into a list before _amsod_drives resumes
        drives = ((c, served, list(spilled), route, dep) for c, served, spilled, route, dep in _amsod_drives(scenario, demand))
        c_o, cuts, passengers, trips = _amsod_columns(scenario, drives)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    rows = list(zip(*(column.tolist() for column in passengers)))
    return ((trip_c_o, rows[cuts[j] : cuts[j + 1]], *trip) for j, (trip_c_o, trip) in enumerate(zip(c_o.tolist(), trips)))


def _trip_logs(scenario: Scenario, mode: str, demand: Demand):
    """The TripLogs of trip_records over a demand realization."""
    for i, (c_o, rows, spilled_ids, drive, dep) in enumerate(trip_records(scenario, mode, demand)):
        plan = None if drive is None else _route_plan(dep, *drive)
        yield TripLog(i, plan, c_o, tuple(rows), tuple(r[0] for r in rows), tuple(spilled_ids))


def simulate_requests(scenario: Scenario, mode: str, requests: Sequence[Request]) -> list:
    """Run the dispatch timeline for one mode over a given demand
    realization (the common-random-numbers entry point); returns TripLogs."""
    require_valid(scenario)
    return list(_trip_logs(scenario, mode, _demand(requests)))


def run_timeline(scenario: Scenario, mode: str, seed: SeedLike) -> list:
    """Sample demand and run the dispatch timeline; returns TripLogs."""
    require_valid(scenario)
    return list(_trip_logs(scenario, mode, sample_demand(scenario.grid, scenario.service, seed)))


def write_trace(logs: Sequence[TripLog], svc: ServiceConfig, path: Union[str, Path]) -> None:
    """Per-trip waypoint trace as CSV: trip, time_h, x_km, y_km, event.

    Rows follow each trip's _walk through its pickup points: a waypoint
    that reaches a point takes its recorded pickup time (then dwells once
    per point); plain corners are interpolated at street speed.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trip", "time_h", "x_km", "y_km", "event"])
        for log in logs:
            plan = log.plan
            if plan is None:
                continue
            pickups, start = plan.pickups, plan.waypoints[0]

            def row(t, x, y, event):
                writer.writerow([log.trip_index, f"{t:.6f}", f"{x:.4f}", f"{y:.4f}", event])

            t, prev = plan.depart_time, start
            for wp, i in _walk(start[0], [p.point for p in pickups], plan.waypoints[-1][0]):
                t += (abs(wp[0] - prev[0]) + abs(wp[1] - prev[1])) / svc.v_d
                if i is None:
                    row(t, wp[0], wp[1], "move")
                else:
                    t = pickups[i].time
                    row(t, wp[0], wp[1], "pickup")
                    row(t + svc.t_s_prime, wp[0], wp[1], "dwell")
                    t += svc.t_s_prime
                prev = wp
            for length, _speed in plan.express_legs:
                row(plan.end_time, prev[0] + length, 0.0, "express")
