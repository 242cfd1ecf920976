"""Closed-form service costs and route-conversion screening.

Hourly generalized costs of a fixed-route corridor service and of its
semi-on-demand replacement, the cost difference between them, screening
indicators (is conversion favorable, and up to what demand), the
two-parallel-band variant, and the zonal-express cost table with its
optimal zone count.  The single-route on-demand cost is the one-zone row
of the zonal table, as the single-route indicators are the one-band case
of the parallel ones.

Conventions shared by every function here:
  * k_j, the pickups per trip, is lambda * headway at steady state.
  * the fixed-route wait uses zero headway variance (Poisson arrivals on a
    clockwork schedule); the on-demand wait adds the headway variance
    induced by detours and pickup dwells, at k_j = lambda * H.
  * mean_access is the fixed-route mean access time in hours and is always
    an explicit argument.  For screening, ``screening_mean_access`` (half
    the maximum access time) is the convention that reproduces the
    reference corridor rankings.  Acceptance criterion 8 passes instead a
    sampled estimate of the simulator's access distribution, drawn by the
    test oracle in ``tests/oracles.py``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import CostParams, GridGeometry, ServiceConfig

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class Dispersion:
    """Perpendicular spread of demand around the route axis, held as the
    one number the cost formulas read: md, the mean absolute difference of
    two independent draws, in km."""

    md: float

    @classmethod
    def uniform(cls, a: float, b: float) -> "Dispersion":
        """uniform(a, b): md = (b - a)/3."""
        if not a < b:
            raise ValueError(f"uniform dispersion requires a < b, got ({a}, {b})")
        return cls((b - a) / 3.0)

    @classmethod
    def normal(cls, sigma: float) -> "Dispersion":
        """normal(sigma): md = 2*sigma/sqrt(pi)."""
        if not sigma > 0:
            raise ValueError(f"normal dispersion requires sigma > 0, got {sigma}")
        return cls(2.0 * sigma / _SQRT_PI)

    @classmethod
    def empirical(cls, samples: Iterable[float]) -> "Dispersion":
        """The all-pairs estimator (every ordered pair i != j) of any
        iterable of samples, computed in O(n log n) from the sorted sample."""
        y = np.sort(np.fromiter(samples, float))
        n = y.size
        if n < 2:
            raise ValueError("empirical dispersion requires at least 2 samples")
        # sum over i<j of (y_j - y_i) = sum_k (2k - n + 1) * y_(k)
        coeff = 2.0 * np.arange(n) - (n - 1)
        return cls(2.0 * float(np.dot(coeff, y)) / (n * (n - 1)))


def expected_wait(headway: float, headway_variance: float) -> float:
    """Expected passenger wait: H/2 + variance/(2H), hours."""
    if not headway > 0:
        raise ValueError("non-positive headway")
    if headway_variance < 0:
        raise ValueError("negative headway variance")
    return headway / 2.0 + headway_variance / (2.0 * headway)


def expected_ivtt_fixed(route_length: float, v_d: float, t_s: float, n_stops: int) -> float:
    """Expected fixed-route in-vehicle time from the service-area midpoint.

    Half the route at street speed plus dwell at half the stops.
    """
    if v_d <= 0:
        raise ValueError("non-positive speed")
    return route_length / (2.0 * v_d) + t_s * n_stops / 2.0


def amsod_headway_variance(k_j: float, md: float, v_d: float, t_s_prime: float) -> float:
    """Variance of the residual trip time seen by a passenger, hours^2.

    Detours to k_j dispersed pickups plus a dwell per pickup make the
    effective headway noisy; this is the variance feeding expected_wait.
    """
    if v_d <= 0:
        raise ValueError("non-positive speed")
    return (md / v_d) ** 2 * (k_j * k_j + 6.0 * k_j + 2.0) / 12.0 + (k_j / 2.0) * t_s_prime**2


def _steady_state(svc: ServiceConfig, md: float) -> tuple:
    """(lambda, H, k_j = lambda*H, on-demand headway variance at dispersion md)."""
    lam, h = svc.demand_rate, svc.headway
    k_j = lam * h
    return lam, h, k_j, amsod_headway_variance(k_j, md, svc.v_d, svc.t_s_prime)


@dataclass(frozen=True)
class CostSummary:
    """Hourly generalized costs in $/h."""

    access: float
    wait: float
    ride: float
    operator: float

    @property
    def total(self) -> float:
        return self.access + self.wait + self.ride + self.operator


def hourly_cost_fixed(cost: CostParams, grid: GridGeometry, svc: ServiceConfig, mean_access: float) -> CostSummary:
    """Hourly generalized cost of the fixed-route service (zero headway variance)."""
    if mean_access < 0:
        raise ValueError("negative mean access time")
    lam, h = svc.demand_rate, svc.headway
    wait_h = expected_wait(h, 0.0)
    ivtt_h = expected_ivtt_fixed(grid.gl_x, svc.v_d, svc.t_s, grid.n_stops)
    return CostSummary(
        access=cost.gamma_a * cost.vot * lam * mean_access,
        wait=cost.gamma_w * cost.vot * lam * wait_h,
        ride=cost.gamma_r * cost.vot * lam * ivtt_h,
        operator=cost.gamma_o * grid.gl_x / h,
    )


def _zonal_cost(cost: CostParams, grid: GridGeometry, svc: ServiceConfig, md: float, n: int) -> CostSummary:
    """Hourly cost of the semi-on-demand service run as n express zones
    (see zonal_plan); n = 1 is the single route."""
    lam, h, k_j, var = _steady_state(svc, md)
    wait = cost.gamma_w * cost.vot * lam * expected_wait(n * h, var)  # refuses h <= 0 before any division by h
    v_h = svc.v_h if n > 1 else svc.v_d  # unused at n = 1
    ride = cost.gamma_r * cost.vot * lam * (
        grid.gl_x / (2.0 * n * svc.v_d)
        + (n - 1) * grid.gl_x / (2.0 * n * v_h)
        + k_j * md / (2.0 * svc.v_d)
        + svc.t_s_prime * k_j / 2.0
    )
    operator = cost.gamma_o * (grid.gl_x * (n + 1) / (2.0 * n * h) + lam * md)
    return CostSummary(access=0.0, wait=wait, ride=ride, operator=operator)


def hourly_cost_amsod(cost: CostParams, grid: GridGeometry, svc: ServiceConfig, md: float) -> CostSummary:
    """Hourly generalized cost of the semi-on-demand service: the one-zone
    row of the zonal table.

    Access cost is zero by construction; the bus comes to the passenger.
    Operator distance gains lambda*md km/h of detour.
    """
    return _zonal_cost(cost, grid, svc, md, 1)


def delta_tc_hourly(
    cost: CostParams,
    grid: GridGeometry,
    svc: ServiceConfig,
    md: float,
    mean_access: float,
) -> float:
    """Hourly cost difference, on-demand minus fixed; negative favors
    conversion.

    Assumes comparable total dwell between the services, so the terms are:
    the access saving, the wait-variance penalty, the detour riding
    penalty, and the detour operator penalty.
    """
    lam, h, k_j, var = _steady_state(svc, md)
    return (
        cost.vot
        / h
        * (
            -cost.gamma_a * k_j * mean_access
            + cost.gamma_w * (lam / 2.0) * var
            + cost.gamma_r * k_j * k_j * md / (2.0 * svc.v_d)
        )
        + cost.gamma_o * lam * md
    )


def _band_si(cost: CostParams, svc: ServiceConfig, md: float, mean_access: float, n_p: int) -> float:
    """Selection indicator of one of n_p parallel bands (see parallel_metrics)."""
    if not mean_access > 0:
        raise ValueError("zero mean access time")
    _, h, k_j, var_band = _steady_state(svc, md / n_p)
    added = (
        cost.gamma_w * (n_p - 1) * h / 2.0
        + cost.gamma_w * var_band / (2.0 * n_p * h)
        + cost.gamma_r * k_j * (md / n_p) / (2.0 * svc.v_d)
        + cost.gamma_o * md / cost.vot
    )
    return added / (cost.gamma_a * mean_access)


def _band_bound(cost: CostParams, svc: ServiceConfig, md: float, mean_access: float, n_p: int) -> float:
    """Demand bound of n_p parallel bands (see parallel_metrics)."""
    if md < 0:
        raise ValueError("negative dispersion")
    if md == 0.0:
        return math.inf
    h = svc.headway
    bound_kj = (
        2.0 * n_p * cost.gamma_a * mean_access * svc.v_d / (cost.gamma_r * md)
        - n_p * (n_p - 1) * cost.gamma_w * h * svc.v_d / (cost.gamma_r * md)
        - 2.0 * n_p * cost.gamma_o * svc.v_d / (cost.gamma_r * cost.vot)
    )
    return max(0.0, bound_kj) / h


def selection_indicator(cost: CostParams, svc: ServiceConfig, md: float, mean_access: float) -> float:
    """Added cost per unit of access-cost saving; below 1 favors conversion."""
    return _band_si(cost, svc, md, mean_access, 1)


def demand_upper_bound(cost: CostParams, svc: ServiceConfig, md: float, mean_access: float) -> float:
    """Largest demand rate (per hour) at which conversion stays favorable.

    Ignores the wait-variance term, so it is the detour-versus-access
    trade: k_j*md/(2 v_d) riding plus md operator detour against the
    access saving.  md = 0 means no detour penalty at all: returns inf.
    """
    return _band_bound(cost, svc, md, mean_access, 1)


@dataclass(frozen=True)
class ParallelMetrics:
    si: float
    demand_bound: float


def parallel_metrics(
    cost: CostParams,
    svc: ServiceConfig,
    md: float,
    mean_access: float,
    n_p: int,
) -> ParallelMetrics:
    """Screening metrics for n_p parallel bands of the catchment.

    Each band keeps the trip size k_j = lambda*H (demand and frequency
    both split n_p ways) but sees dispersion md/n_p, a band headway of
    n_p*H, and therefore an extra deterministic wait of (n_p - 1)*H/2 per
    passenger relative to the fixed route.  The operator detour term is
    kept at the full md as a conservative allowance for the split routes'
    empty repositioning; with n_p = 1 both formulas are the single-route
    indicator and bound.
    """
    if n_p < 1:
        raise ValueError("n_p must be >= 1")
    return ParallelMetrics(
        si=_band_si(cost, svc, md, mean_access, n_p),
        demand_bound=_band_bound(cost, svc, md, mean_access, n_p),
    )


@dataclass(frozen=True)
class ZonalPlan:
    table: tuple  # CostSummary for n = 1..n_max; row i is n = i + 1
    n_continuous: float  # unconstrained real minimizer
    n_opt: int  # closed-form integer optimum


def zonal_plan(
    cost: CostParams,
    grid: GridGeometry,
    svc: ServiceConfig,
    md: float,
    n_max: int,
) -> ZonalPlan:
    """Cost table and optimal zone count for zonal-express operation.

    Zone z of n covers an equal n-th of the corridor with local headway
    n*H; its buses skip the zones nearer downtown on the highway at v_h
    and never enter the zones behind them, which is where the operator
    saving comes from.  The n-dependent part of the hourly cost is
    A*n + B/n with

        A = gamma_w VOT lambda H / 2
        B = gamma_w VOT lambda var/(2H)
            + gamma_r VOT lambda GL_x (1/v_d - 1/v_h) / 2
            + gamma_o GL_x / (2H)

    so the continuous optimum is sqrt(B/A).  The integer optimum compares
    the two neighboring zone counts on the actual cost table (ties take
    the smaller n: fewer zones, simpler service), which provably matches
    the brute-force argmin.  The variance term is kept inside B so the
    closed form minimizes exactly what the table tabulates; with it
    dropped the classical square-root rule reappears.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > 1 and svc.v_h is None:
        raise ValueError("missing v_h: highway speed required when n_max > 1")
    if not svc.demand_rate > 0:
        raise ValueError("zonal planning requires positive demand")

    table = tuple(_zonal_cost(cost, grid, svc, md, n) for n in range(1, n_max + 1))

    lam, h, _, var = _steady_state(svc, md)
    v_h = svc.v_h if svc.v_h is not None else svc.v_d
    a_coef = cost.gamma_w * cost.vot * lam * h / 2.0
    b_coef = (
        cost.gamma_w * cost.vot * lam * var / (2.0 * h)
        + cost.gamma_r * cost.vot * lam * grid.gl_x * (1.0 / svc.v_d - 1.0 / v_h) / 2.0
        + cost.gamma_o * grid.gl_x / (2.0 * h)
    )
    n_cont = math.sqrt(max(0.0, b_coef) / a_coef)

    lo = min(max(1, math.floor(n_cont)), n_max)
    hi = min(max(1, math.ceil(n_cont)), n_max)
    n_opt = lo if table[lo - 1].total <= table[hi - 1].total else hi
    return ZonalPlan(table=table, n_continuous=n_cont, n_opt=n_opt)


# --- screening conventions ---------------------------------------------------


def screening_dispersion(grid: GridGeometry) -> float:
    """Worst-case demand dispersion: uniform across the widest catchment."""
    return Dispersion.uniform(-grid.max_gl_y, grid.max_gl_y).md


def screening_mean_access(svc: ServiceConfig) -> float:
    """Mean access time convention for screening: half the maximum access
    time, i.e. the average walk when demand fills the walkshed evenly."""
    return svc.s_o / 2.0
