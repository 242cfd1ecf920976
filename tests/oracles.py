"""Reference code the tests compare the package against.

No production path calls any of it: single-trip planning and costing
from Request lists, zone slices, a Monte Carlo mean access time, the
rectilinear length of a route plan and the brute-force zone count.  It
reuses the simulator's private helpers, so a check built on it exercises
the same rules the departure loops run.
"""
import math
from bisect import insort
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from semibus.analytic import ZonalPlan
from semibus.model import CostParams, GridGeometry, Request, RoutePlan, ServiceConfig, TripCosts
from semibus.simulator import (
    _Y_ID,
    FixedSchedule,
    SeedLike,
    _amsod_rows,
    _boarding_rows,
    _demand,
    _drive,
    _fixed_rows,
    _nearest_stops,
    _route_plan,
    _sample_positions,
    _sub_routes,
    _trip_costs,
    snap_to_streets,
)


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
        insort(streets.setdefault(req.x, []), (req.x, req.y, -math.inf, req.id), key=_Y_ID)  # all already due
    served, _, route = _drive(streets, depart_time, svc, 0.0, grid.gl_x, 0.0, len(requests))
    return _route_plan(depart_time, served, route)


def evaluate_amsod_trip(plan: RoutePlan, cost: CostParams, svc: ServiceConfig, requests: Sequence[Request]) -> TripCosts:
    """Cost one on-demand trip from its plan, by the on-demand loop's
    costing (_amsod_rows)."""
    t_k = {r.id: r.t_k for r in requests}
    served = [(p.request_id, t_k[p.request_id], p.time, p.point) for p in plan.pickups]
    route = (plan.waypoints[0][0], plan.waypoints[-1][0], plan.d_y, plan.express_legs, plan.end_time)
    return _trip_costs(cost, *_amsod_rows(served, route, cost, svc))


def evaluate_fixed_trip(
    requests: Sequence[Request], departure_index: int, sched: FixedSchedule, cost: CostParams, grid: GridGeometry, svc: ServiceConfig
) -> TripCosts:
    """Cost one fixed-route trip for the passengers boarding it, by the
    fixed-route loop's costing (_fixed_rows)."""
    boarding, _ = _boarding_rows(_demand(requests), sched, grid, svc)
    return _trip_costs(cost, *_fixed_rows(boarding, sched.departures[departure_index], sched, cost, grid))


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
    x, y, _ = _sample_positions(grid, n_samples, rng)
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
