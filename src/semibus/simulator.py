"""Seeded demand generation, routing rules, and the dispatch timeline.

The corridor runs along x from 0 to gl_x; buses depart the terminal every
headway and always finish on the axis at the corridor end.  Two service
modes share each demand realization; each has its own departure loop, in
which trip i serves sub-route i mod n.  Both find with array operations
the first trip that may take each request; what a trip does not serve
waits for the sub-route's next trip.  Each mode costs its passengers in
one place: _fixed_columns, and _amsod_columns over the trips _amsod_drives
yields, return each trip's operator cost, the trip cuts, and the boarded
passengers' (id, t_k, wait, ivtt, access) columns in trip, then boarding
order; _fixed_columns also gives each trip's spilled ids.  run_scenario
folds the columns (only experiments._window_metrics weights them into
costs, summing in that order with np.bincount; reported numbers depend on
it) and never reads a spill.  simulate_requests slices the columns into
each trip's rows and keeps them, with its operator cost, its spilled ids
and on demand its RoutePlan, in a TripLog.  write_trace walks the trips
_amsod_drives yields.

Demand travels as columns (Demand: id, x, y, t_k, home_stop) from the
draw to both loops.  A block is consecutive draws laid end to end in one
Demand, draw b in rows draws[b]:draws[b + 1] with ids from 0 in each
(_sample_block).  The array work runs once per block, and the columns
hold all its draws' trips end to end (draw b's trip j at cut b * n + j).
The Python loops run per draw: the on-demand trips, whose served records
become arrays before the next draw runs, and the fixed route's capacity
loop, on a draw that overflows it.  The per-draw entry points
(sample_demand, simulate_requests, write_trace) run a block of one.
Request objects appear only at the public entry points: sample_requests
builds them, and simulate_requests and partition_parallel turn them back
into columns through one helper.  The schedule and the arrays a block
reads from its grid are built once per block.

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
    runs forward along the grid (y-then-x, _walk).  Several requests
    snapped to one cross-street are served in a single sweep, entering from
    the side whose extreme lies further from the axis.  Each sub-route keeps
    its pending requests in one dict from cross-street x to a sorted list of
    candidates (sx, sy, request_id, t_k); on one street sx is shared and
    ids are unique, so plain tuple order is (y, id) order.  Beside it a
    sorted list of keys (x, low) gains a street when its first candidate
    arrives and loses it when its last is served, so a trip visits the
    streets by ascending x without sorting them and reads each sweep from
    its list.  A request is served by the first trip whose arrival at its
    pickup point is no earlier than its request time (the point must still
    be ahead of the bus); otherwise it waits for the next trip, as do
    passengers beyond capacity.  A trip skips a street whose earliest
    pending request comes after the bus's latest possible arrival anywhere
    on it (_drive), by the street's low: its first candidate's t_k - x /
    v_d.  _amsod_drives admits each trip's arrivals in t_k order, so the
    first is the earliest, and a draw may come in any order.

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
from itertools import accumulate, chain, repeat
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
    """One trip of simulate_requests, its spill read."""

    trip_index: int
    plan: Optional[RoutePlan]  # amsod only
    c_o: float  # operator cost
    rows: tuple  # (id, t_k, wait, ivtt, access) per passenger, boarding order
    served_ids: tuple  # the rows' ids
    spilled_ids: tuple  # assigned but deferred to the next trip


def build_schedule(grid: GridGeometry, svc: ServiceConfig) -> FixedSchedule:
    stops_x, n = grid.stop_chainages, grid.n_stops
    offsets = tuple(c / svc.v_d + svc.t_s * s for s, c in enumerate(stops_x))
    # one dwell per downstream stop
    rides = tuple((grid.gl_x - c) / svc.v_d + svc.t_s * (n - s - 1) for s, c in enumerate(stops_x))
    departures = tuple(i * svc.headway for i in range(math.ceil((svc.horizon - _EPS) / svc.headway)))
    return FixedSchedule(departures=departures, stop_offsets=offsets, ride_times=rides)


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


def _sample_positions(grid: GridGeometry, draws: Sequence[int], rngs: Sequence[np.random.Generator]):
    """Draw a block's demand points, rows draws[b]:draws[b + 1] with rngs[b]:
    stop by weight, then uniform around the stop, redrawn until its
    rectilinear offset fits the catchment, on the corridor.  A generator's
    round over its m points still to draw (none once it has none) maps the
    two rows of one rng.random(2 * m) as Generator.uniform maps the same
    doubles (low + (high - low) * u), so dx and y are bitwise
    uniform(-h, h, m) then uniform(-g, g), generator state included, without
    uniform's array-bound overhead (numpy 2.4.6's arithmetic)."""
    weights = np.asarray(grid.stop_weights, dtype=float)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]  # Generator.choice builds the same CDF, so the stop draws match it
    stops = cdf.searchsorted(np.concatenate([rng.random(hi - lo) for lo, hi, rng in zip(draws, draws[1:], rngs)]), side="right")
    chain, gl, h = np.asarray(grid.stop_chainages)[stops], np.asarray(grid.gl_y)[stops], grid.d_xs / 2.0
    x, y, left = np.empty(stops.size), np.empty(stops.size), np.arange(stops.size)  # left: points still to draw
    while left.size:
        ends = left.searchsorted(draws).tolist()  # draw b's points still to draw: left[ends[b]:ends[b + 1]]
        u = np.concatenate([rng.random(2 * (hi - lo)).reshape(2, -1) for lo, hi, rng in zip(ends, ends[1:], rngs) if hi > lo], axis=1)
        g = gl[left]
        dx = -h + (h - -h) * u[0]
        y[left] = yt = -g + (g - -g) * u[1]
        x[left] = xt = chain[left] + dx
        left = left[(np.abs(dx) + np.abs(yt) > g) | (xt < 0.0) | (xt > grid.gl_x)]
    return x, y, stops


def _sample_block(grid: GridGeometry, svc: ServiceConfig, rngs: Sequence[np.random.Generator]) -> tuple:
    """(Demand, draws): one draw of sample_demand per generator, laid end to
    end as the columns of a block (draw b in rows draws[b]:draws[b + 1], its
    ids from 0).  Each generator draws in sample_demand's order: the count,
    the sorted times, the stops, then the rejection rounds."""
    counts, times = [], []
    for rng in rngs:
        counts.append(int(rng.poisson(svc.demand_rate * svc.horizon)))
        times.append(np.sort(rng.uniform(0.0, svc.horizon, counts[-1])))
    draws = [0, *accumulate(counts)]
    x, y, stops = _sample_positions(grid, draws, rngs)
    return Demand(np.arange(draws[-1]) - np.repeat(draws[:-1], counts), x, y, np.concatenate(times), stops), draws


def sample_demand(grid: GridGeometry, svc: ServiceConfig, seed: SeedLike) -> Demand:
    """Homogeneous Poisson request process over [0, horizon] as columns,
    deterministic given (seed, scenario); ids ascend with t_k."""
    return _sample_block(grid, svc, [np.random.default_rng(seed)])[0]


def sample_requests(grid: GridGeometry, svc: ServiceConfig, seed: SeedLike) -> list:
    """The draw of sample_demand as a list of Requests."""
    return list(map(Request, *(column.tolist() for column in sample_demand(grid, svc, seed))))


def _nearest_stops(grid: GridGeometry, x: np.ndarray) -> tuple:
    """(nearest stop, x distance to it) for each x by rectilinear
    distance; ties go downstream."""
    chainage = np.asarray(grid.stop_chainages)
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


# --- on-demand routing -------------------------------------------------------
#
# Candidate tuples are (sx, sy, request_id, t_k).  One cross-street's
# candidates share sx and ids are unique, so plain tuple order is the
# (y, id) sweep order and t_k is never compared.

_Y = itemgetter(1)


def _sweep(m: list) -> list:
    """One street's candidates in visit order (see _drive)."""
    return sorted(m, key=_Y, reverse=True) if len(m) > 1 and abs(m[-1][1]) >= abs(m[0][1]) else m


def _spill(cands, t: float, bx: float, by: float, last_arrival: float, inv_v: float):
    """Lazily, the ids of the candidates a full bus leaves that are ready
    at its last point (it no longer moves).  cands reads the street lists
    in place, so the loop removes served candidates only when it resumes."""
    for sx, sy, rid, tk in cands:
        if tk <= last_arrival or tk <= (last_arrival if sx == bx and sy == by else t + (abs(sy - by) + (sx - bx)) * inv_v) + 1e-12:
            yield rid


def _drive(streets: dict, xs: list, depart: float, svc: ServiceConfig, start_x: float, end_x: float, express_length: float, capacity: int, y_far: float) -> tuple:
    """Drive one trip from (start_x, 0) to the axis at end_x, then
    express_length km on at v_h, serving the pending candidates of streets
    (cross-street x -> candidates sorted by (y, id)) in visit order: streets
    by ascending x (xs, the sorted (x, low) keys of streets), each in one
    monotone y sweep from the end with the larger |y| (the positive end on a
    tie), ids ascending within a point (the sort is stable).

    A candidate whose request time is later than the bus's arrival at its
    point is left for the next trip; ready candidates beyond capacity are
    spilled.  No arrival on street x is later than t + (y_far + |by| + x -
    bx) / v_d, with the bus at (bx, by) from time t and y_far at least every
    candidate's |y|, so the trip skips street x when its key's low (at most
    its earliest t_k minus x / v_d) exceeds reach = t + (y_far + |by| - bx)
    / v_d + 1e-9.  Returns (served, spilled_ids, route): served records
    (request_id, t_k, arrival, point) in boarding order, a full bus's lazy
    _spill (else ()) that only simulate_requests reads, and (start_x, end_x,
    d_y, express_legs, end_time).
    """
    t = last_arrival = depart
    bx, by = start_x, 0.0
    served, d_y, spilled = [], 0.0, ()
    inv_v = 1.0 / svc.v_d
    reach = t + (y_far - bx) * inv_v + 1e-9
    keys = iter(xs)
    for x, low in keys:
        if low > reach:
            continue
        m = streets[x]  # _sweep(m), inline: the call would cost about a tenth of the walk
        street = iter(sorted(m, key=_Y, reverse=True) if len(m) > 1 and abs(m[-1][1]) >= abs(m[0][1]) else m)
        for sx, sy, rid, tk in street:
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
                reach = t + (y_far + abs(by) - bx) * inv_v + 1e-9
            served.append((rid, tk, arrival, (sx, sy)))
            if len(served) == capacity:
                break
        else:
            continue
        # full: the rest of this street, then every later one
        spilled = _spill(chain(street, chain.from_iterable(_sweep(streets[x]) for x, _ in keys)), t, bx, by, last_arrival, inv_v)
        break
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
    gl = np.asarray(grid.gl_y)[demand.home_stop]
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


def _stable_order(keys: np.ndarray, top: int) -> np.ndarray:
    """np.argsort(keys, kind="stable") of integer keys in [0, top], sorted
    as the smallest unsigned type that holds top: numpy sorts 8- and 16-bit
    keys by radix sort, in linear time, and a block's trip or stop keys fit."""
    return np.argsort(keys.astype(np.min_scalar_type(top)), kind="stable")


def _fixed_columns(scenario: Scenario, demand: Demand, draws: Sequence[int]):
    """The fixed route's departure loop of each draw of a block.  Each trip
    boards, up to capacity, the spill of the trip before and the requests
    whose first catchable departure it is, in (stop, ready, id) key order;
    its operator cost is the full corridor length regardless of boardings.
    Returns the block's trips laid end to end, draw by draw: each trip's
    operator cost (a row per draw), the trip cuts (draw b's trip j boards
    rows cuts[b * n + j]:cuts[b * n + j + 1]), the boarded passengers' (id,
    t_k, wait, ivtt, access) columns in draw, trip, then boarding order,
    and lazily each trip's list of spilled ids in key order, which
    run_scenario never reads."""
    grid, svc = scenario.grid, scenario.service
    sched = build_schedule(grid, svc)
    n, cap, departures, n_draws = len(sched.departures), svc.capacity, np.asarray(sched.departures), len(draws) - 1
    stops, dx = _nearest_stops(grid, demand.x)
    access = (dx + np.abs(demand.y)) / svc.v_w
    ready = demand.t_k + access
    offsets = np.asarray(sched.stop_offsets)[stops]
    firsts = np.minimum(np.maximum(0.0, np.ceil((ready - offsets) / svc.headway - 1e-12)), n).astype(np.int64)
    rides = np.asarray(sched.ride_times)[stops]
    draw = np.repeat(np.arange(n_draws), np.diff(draws))  # of each row, and of each key position: a draw keeps its rows
    key = np.lexsort((demand.id, ready))  # the (ready, id) order
    key = key[_stable_order((draw * grid.n_stops + stops)[key], n_draws * grid.n_stops)]  # by draw, then the (stop, ready, id) order
    first = firsts[key]
    trip = first.copy()  # per row in key order; n: never boards (clamped before the cast, which would overflow)
    loads = np.bincount(draw * (n + 1) + trip, minlength=n_draws * (n + 1)).reshape(n_draws, n + 1)[:, :n]
    for b in np.flatnonzero((loads > cap).any(axis=1)).tolist():
        # trip j takes the first cap rows of the draw in key order that reached it
        t, f = trip[draws[b] : draws[b + 1]], first[draws[b] : draws[b + 1]]  # views
        waiting, t[:] = t < n, n
        for j in range(n):
            take = np.flatnonzero(waiting & (f <= j))[:cap]
            t[take] = j
            waiting[take] = False
    slot = np.where(trip < n, draw * n + trip, n_draws * n)
    by_trip = _stable_order(slot, n_draws * n)  # by draw, trip, then key order; the unboarded last
    cuts = np.searchsorted(slot[by_trip], np.arange(n_draws * n + 1)).tolist()
    boarded = by_trip[: cuts[-1]]
    board = key[boarded]  # demand rows in boarding order
    wait = departures[trip[boarded]] + offsets[board] - ready[board]
    late = np.flatnonzero(wait < -1e-9)
    if late.size:
        raise ValueError(f"request {demand.id[board[late[0]]]} assigned to a departure it cannot catch")
    spills = (demand.id[key[lo:hi][(first[lo:hi] <= j) & (trip[lo:hi] > j)]].tolist() for lo, hi in zip(draws, draws[1:]) for j in range(n))
    passengers = demand.id[board], demand.t_k[board], np.maximum(wait, 0.0), rides[board], access[board]
    return np.full((n_draws, n), scenario.cost.gamma_o * grid.gl_x), cuts, passengers, spills


def _amsod_drives(scenario: Scenario, demand: Demand, draws: Sequence[int]):
    """Lazily per draw of a block, the generator of its trips.  Each trip
    drives its sub-route's pending candidates, kept in one dict from
    cross-street x to a sorted list of (sx, sy, request_id, t_k) and the
    dict's keys as one sorted list of (x, low); a request arrives at the
    first trip of its sub-route whose t_bound it does not exceed.  A trip's
    arrivals are taken in t_k order (the block is sorted by draw, arrival
    trip, then t_k), so low, t_k - x / v_d of a street's first, is its least.
    A trip yields (c_o, served, spilled, route, dep)."""
    grid, svc = scenario.grid, scenario.service
    sub, bounds = _sub_routes(demand, grid, svc.n_zones, svc.n_parallel)
    sx_all = _snap(demand.x, grid.l_x, tie_toward_zero=False)
    sy = _snap(demand.y, grid.l_y, tie_toward_zero=True)
    cap, n, deps, n_draws = svc.capacity, len(bounds), build_schedule(grid, svc).departures, len(draws) - 1
    inv_v, y_far = 1.0 / svc.v_d, np.abs(sy).max(initial=0.0).item()
    y_hat = _snap(np.array(grid.max_gl_y), grid.l_y, tie_toward_zero=True).item()  # max_gl_y snapped: no request snaps further out
    sx, firsts = np.empty(len(sub)), np.empty(len(sub), np.int64)
    for k, (x_lo, x_hi, _) in enumerate(bounds):
        mine = sub == k
        sx[mine] = np.minimum(np.maximum(sx_all[mine], x_lo), x_hi)  # kept inside the run
        # at most cap dwells and cap + 1 cross-street moves precede any arrival
        reach = (x_hi - x_lo + (cap + 1) * 2.0 * y_hat) / svc.v_d + cap * svc.t_s_prime
        firsts[mine] = k + n * np.searchsorted(np.asarray(deps[k::n]) + reach, demand.t_k[mine])  # t_k <= t_bound
    # by draw, arrival trip, then t_k; a request no trip takes (past the last) stays within its draw
    slot = np.repeat(np.arange(n_draws) * (len(deps) + 1), np.diff(draws)) + np.minimum(firsts, len(deps))
    order = np.argsort(slot + 1j * demand.t_k, kind="stable")  # complex keys sort by real, then imaginary part
    columns = [column[order].tolist() for column in (sx, sy, demand.id, demand.t_k)]
    cuts = np.searchsorted(slot[order], np.arange(n_draws * (len(deps) + 1))) - np.repeat(draws[:-1], len(deps) + 1)

    def drives(lo, hi, cut):
        cands = list(zip(*(column[lo:hi] for column in columns)))
        streets = [({}, []) for _ in bounds]  # per sub-route: x -> candidates, and the sorted (x, low) keys
        for i, dep in enumerate(deps):
            (pending, xs), (start_x, end_x, express_len) = streets[i % n], bounds[i % n]
            for c in cands[cut[i] : cut[i + 1]]:
                m = pending.get(c[0])
                if m is None:
                    pending[c[0]] = [c]
                    insort(xs, (c[0], c[3] - c[0] * inv_v))
                else:
                    insort(m, c)
            served, spilled, route = _drive(pending, xs, dep, svc, start_x, end_x, express_len, cap, y_far)
            yield scenario.cost.gamma_o * (end_x - start_x + route[2] + (express_len if route[3] else 0.0)), served, spilled, route, dep
            for rid, tk, _, (x, y) in served:  # after the yield: spilled reads the lists as the trip left them
                m = pending[x]
                del m[bisect_left(m, (x, y, rid, tk))]
                if not m:
                    del pending[x]
                    del xs[bisect_left(xs, (x,))]

    return map(drives, draws[:-1], draws[1:], cuts.reshape(n_draws, -1).tolist())


def _amsod_columns(scenario: Scenario, drives) -> tuple:
    """_fixed_columns' first three items on demand, from the trips
    _amsod_drives yields for each draw of a block.  Each draw's served
    records become arrays before its next draw runs.

    Access is identically zero.  Wait runs from request time to the bus's
    arrival at the pickup point; in-vehicle time from when the bus leaves
    that point (so a lone passenger carries no dwell at all) to the
    corridor end, express legs included.
    """
    c_o, cuts, end, records = [], [0], [], []
    for trips in drives:
        served = []
        for trip_c_o, trip, _, route, _ in trips:
            c_o.append(trip_c_o)
            served += trip
            end.append(route[4])
            cuts.append(cuts[-1] + len(trip))
        records.append([np.fromiter(map(itemgetter(i), served), dtype, len(served)) for i, dtype in ((0, int), (1, float), (2, float))])
    ids, t_k, arrival = map(np.concatenate, zip(*records))
    wait = arrival - t_k
    late = np.flatnonzero(wait < -1e-9)
    if late.size:
        raise ValueError(f"negative wait for request {ids[late[0]]}: {wait[late[0]]}")
    ivtt = np.maximum(np.repeat(end, np.diff(cuts)) - arrival - scenario.service.t_s_prime, 0.0)  # max(0.0, x) as np.maximum(x, 0.0)
    return np.reshape(c_o, (len(records), -1)), cuts, (ids, t_k, np.maximum(wait, 0.0), ivtt, np.zeros(len(ids)))


def simulate_requests(scenario: Scenario, mode: str, requests: Sequence[Request]) -> list:
    """Run the departure loop of one mode over a demand realization given in
    any order (the common-random-numbers entry point): a TripLog per trip,
    its rows sliced from the columns run_scenario folds."""
    require_valid(scenario)
    demand, draws = _demand(requests), (0, len(requests))  # a block of one draw
    if mode == "fixed":
        c_o, cuts, passengers, spills = _fixed_columns(scenario, demand, draws)
        plans = repeat(None)
    elif mode == "amsod":
        [drives] = _amsod_drives(scenario, demand, draws)
        log = [(c, served, tuple(spilled), route, dep) for c, served, spilled, route, dep in drives]  # each spill read before its drive resumes
        c_o, cuts, passengers = _amsod_columns(scenario, [log])
        spills, plans = [trip[2] for trip in log], [_route_plan(dep, served, route) for _, served, _, route, dep in log]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    rows = list(zip(*(column.tolist() for column in passengers)))
    trips = zip(c_o[0].tolist(), (tuple(rows[lo:hi]) for lo, hi in zip(cuts, cuts[1:])), spills, plans)
    return [TripLog(j, plan, c, trip, tuple(r[0] for r in trip), tuple(spilled)) for j, (c, trip, spilled, plan) in enumerate(trips)]


def write_trace(scenario: Scenario, demand: Demand, path: Union[str, Path]) -> None:
    """The on-demand waypoint trace of one demand realization as CSV: trip
    (departure index), time_h, x_km, y_km, event.

    Rows follow each trip's _walk through its served points: a waypoint that
    reaches a point takes that passenger's arrival (then dwells once per
    point); plain corners are interpolated at street speed.
    """
    svc, [drives] = scenario.service, _amsod_drives(require_valid(scenario), demand, (0, len(demand.id)))  # validated before the file opens
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trip", "time_h", "x_km", "y_km", "event"])
        for trip, (_, served, _, (start_x, end_x, _, express_legs, end_time), dep) in enumerate(drives):

            def row(t, x, y, event):
                writer.writerow([trip, f"{t:.6f}", f"{x:.4f}", f"{y:.4f}", event])

            t, prev = dep, (start_x, 0.0)
            for wp, i in _walk(start_x, [point for *_, point in served], end_x):
                t += (abs(wp[0] - prev[0]) + abs(wp[1] - prev[1])) / svc.v_d
                if i is None:
                    row(t, wp[0], wp[1], "move")
                else:
                    t = served[i][2]
                    row(t, wp[0], wp[1], "pickup")
                    row(t + svc.t_s_prime, wp[0], wp[1], "dwell")
                    t += svc.t_s_prime
                prev = wp
            for length, _speed in express_legs:
                row(end_time, prev[0] + length, 0.0, "express")
