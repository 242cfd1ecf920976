"""Core domain types, scenario validation, and scenario file I/O.

Everything internal works in a single unit system: kilometres, hours,
dollars.  Scenario files may declare other units per field with a suffix
(``"headway_min": 15`` or ``"headway_h": 0.25``); conversion happens once,
at the parsing boundary.

All types are immutable values after construction and safe to share
between concurrent workers.
"""
from __future__ import annotations

import json
import numbers
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, Union, get_args, get_type_hints

DEFAULT_SEED = 1729
DEFAULT_REPLICATIONS = 10_000

_WEIGHT_TOL = 1e-9
_FLOAT_MAX = sys.float_info.max
_INFINITE = frozenset((float("inf"), float("-inf")))


class ScenarioError(ValueError):
    """A scenario, or a value that overrides part of one, failed parsing or validation."""

    def __init__(self, problems: Sequence["Violation"] | str):
        if isinstance(problems, str):
            problems = [Violation("scenario", problems)]
        self.problems = list(problems)
        super().__init__("; ".join(str(p) for p in self.problems))


@dataclass(frozen=True)
class Violation:
    """One broken rule, named by field and rule."""

    field: str
    rule: str
    severity: str = "error"  # "error" | "warning"
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.field}: {self.rule}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


@dataclass(frozen=True)
class CostParams:
    """Monetized-cost parameters.

    gamma_a/gamma_w/gamma_r are dimensionless penalty multipliers on
    access, waiting, and riding time; riding is the numeraire (1 by
    convention).  gamma_o is the operator cost per vehicle-km and vot the
    value of time in $/hour.
    """

    gamma_a: float = 2.0
    gamma_w: float = 1.5
    gamma_r: float = 1.0
    gamma_o: float = 1.0
    vot: float = 16.5


@dataclass(frozen=True)
class GridGeometry:
    """Grid corridor geometry.

    gl_y is the catchment half-width; it may vary per stop (real routes
    do), so it is stored as one value per stop.  A scalar at construction
    is expanded to a constant list.
    """

    l_x: float  # x block length, km
    l_y: float  # y block length, km
    gl_x: float  # corridor length, km
    gl_y: Union[float, tuple]  # catchment half-width per stop, km
    stop_chainages: tuple  # stop x positions, km, ascending
    stop_weights: tuple  # demand share per stop, sums to 1
    d_xs: float  # nominal stop spacing, km

    def __post_init__(self):
        object.__setattr__(self, "stop_chainages", tuple(float(c) for c in self.stop_chainages))
        object.__setattr__(self, "stop_weights", tuple(float(w) for w in self.stop_weights))
        gl_y = (self.gl_y,) * len(self.stop_chainages) if isinstance(self.gl_y, (int, float)) else self.gl_y
        object.__setattr__(self, "gl_y", tuple(float(g) for g in gl_y))

    @property
    def n_stops(self) -> int:
        return len(self.stop_chainages)

    @property
    def max_gl_y(self) -> float:
        return max(self.gl_y)


@dataclass(frozen=True)
class ServiceConfig:
    """Service design parameters (all times in hours, speeds in km/h)."""

    headway: float
    capacity: int
    v_d: float  # bus street speed, dwell excluded
    v_w: float  # walking speed
    t_s: float  # fixed-route dwell per stop
    t_s_prime: float  # on-demand dwell per pickup point
    demand_rate: float  # passengers per hour (lambda)
    s_o: float  # maximum access time
    n_parallel: int = 1
    n_zones: int = 1
    v_h: Optional[float] = None  # highway speed, zonal express legs only
    horizon: float = 3.0
    warmup_window: tuple = (1.0, 2.0)  # request times counted for costs

    def __post_init__(self):
        object.__setattr__(self, "warmup_window", tuple(float(t) for t in self.warmup_window))


@dataclass(frozen=True)
class Request:
    """One passenger: demand point (x, y) and the time they are ready."""

    id: int
    x: float
    y: float
    t_k: float  # ready/request time, hours from scenario start
    home_stop: int  # index of the generating stop


@dataclass(frozen=True)
class Pickup:
    """One served passenger on a route plan."""

    request_id: int
    time: float  # actual pickup time, hours
    point: tuple  # lattice point (x, y)
    remaining_stops: int  # distinct pickup points strictly after this one


@dataclass(frozen=True)
class RoutePlan:
    """Ordered waypoint path of one on-demand trip.

    Waypoints cover the grid segment only; zonal express legs are listed
    separately so d_x + d_y always equals the rectilinear length of the
    waypoint polyline.
    """

    waypoints: tuple  # lattice points (x, y)
    d_x: float  # x distance on the grid segment, km
    d_y: float  # y distance, km
    pickups: tuple  # Pickup records in visit order
    express_legs: tuple = ()  # (length_km, speed_kmh) pairs
    depart_time: float = 0.0
    end_time: float = 0.0  # arrival at the corridor end, express included


@dataclass(frozen=True)
class MetricSummary:
    median: float
    p2_5: float
    p97_5: float


@dataclass(frozen=True)
class ScenarioStats:
    """Median and 95% percentile bounds per metric over replications."""

    metrics: dict


@dataclass(frozen=True)
class Scenario:
    name: str
    cost: CostParams
    grid: GridGeometry
    service: ServiceConfig
    seed: int = DEFAULT_SEED
    replications: int = DEFAULT_REPLICATIONS


# --- scenario schema ---------------------------------------------------------
#
# One table per file object, in the order its keys are written; an entry is
# (field, unit family, key written, sign rule).  A unit family maps key
# suffixes to factors to the canonical unit; _COUNT marks an integer count.
# Each sign test is false for NaN, and so is each check of scenario_problems.
# Fields with no dataclass default are required.

_TIME = {"_h": 1.0, "_hours": 1.0, "_min": 1.0 / 60.0, "_s": 1.0 / 3600.0}
_DIST = {"_km": 1.0, "_m": 1.0 / 1000.0}
_SPEED = {"_kmh": 1.0}
_PLAIN = {}
_COUNT = None

_POSITIVE = (lambda v: v > 0, "non-positive parameter")
_NON_NEGATIVE = (lambda v: v >= 0, "negative parameter")
_AT_LEAST_ONE = (lambda v: v >= 1, "invalid count")

_SCHEMA = {
    "cost": (CostParams, (
        ("gamma_a", _PLAIN, "gamma_a", _POSITIVE),
        ("gamma_w", _PLAIN, "gamma_w", _POSITIVE),
        ("gamma_r", _PLAIN, "gamma_r", _POSITIVE),
        ("gamma_o", _PLAIN, "gamma_o", _POSITIVE),
        ("vot", _PLAIN, "vot", _POSITIVE),
    )),
    "grid": (GridGeometry, (
        ("l_x", _DIST, "l_x_km", _POSITIVE),
        ("l_y", _DIST, "l_y_km", _POSITIVE),
        ("gl_x", _DIST, "gl_x_km", _POSITIVE),
        ("gl_y", _DIST, "gl_y_km", _POSITIVE),
        ("d_xs", _DIST, "d_xs_km", _POSITIVE),
        ("stop_chainages", _DIST, "stop_chainages_km", None),
        ("stop_weights", _PLAIN, "stop_weights", _NON_NEGATIVE),
    )),
    "service": (ServiceConfig, (
        ("headway", _TIME, "headway_h", _POSITIVE),
        ("capacity", _COUNT, "capacity", _AT_LEAST_ONE),
        ("n_parallel", _COUNT, "n_parallel", _AT_LEAST_ONE),
        ("n_zones", _COUNT, "n_zones", _AT_LEAST_ONE),
        ("v_d", _SPEED, "v_d", None),
        ("v_w", _SPEED, "v_w", None),
        ("t_s", _TIME, "t_s_h", _NON_NEGATIVE),
        ("t_s_prime", _TIME, "t_s_prime_h", _NON_NEGATIVE),
        ("demand_rate", _PLAIN, "lambda", _NON_NEGATIVE),
        ("s_o", _TIME, "s_o_h", _POSITIVE),
        ("horizon", _TIME, "horizon_h", _POSITIVE),
        ("warmup_window", _TIME, "warmup_window_h", None),
        ("v_h", _SPEED, "v_h", None),
    )),
    "run": (Scenario, (
        ("seed", _COUNT, "seed", _NON_NEGATIVE),
        ("replications", _COUNT, "replications", _AT_LEAST_ONE),
    )),
}


def _parse_rules(cls, table) -> tuple:
    """({accepted key: (field, factor to the canonical unit or None for a count, shape)}, required
    fields); shape, from the field's type hint, is "list" (tuple), "number" or None (either)."""
    keys, hints = {}, get_type_hints(cls)
    for field, family, written, _ in table:
        kinds = get_args(hints[field]) or (hints[field],)
        shape = "list" if kinds == (tuple,) else None if tuple in kinds else "number"
        keys[field] = keys[written] = (field, None if family is _COUNT else 1.0, shape)
        for suffix, factor in (family or {}).items():
            keys[field + suffix] = (field, factor, shape)
    return keys, tuple(f.name for f in fields(cls) if f.name in keys and f.default is f.default_factory is MISSING)


_PARSE = {section: _parse_rules(cls, table) for section, (cls, table) in _SCHEMA.items()}


def _sign_problems(section: str, obj) -> list:
    """Violations of the table's count, finiteness and sign rules, one per field: +-inf is a
    non-finite number (as at parse), else a per-stop tuple reports its first bad value."""
    out = []
    for field, family, _, sign in _SCHEMA[section][1]:
        value = getattr(obj, field)
        if family is _COUNT and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            out.append(Violation(f"{section}.{field}", "non-integer count", detail=f"value {value!r}"))
            continue
        values = value if isinstance(value, tuple) else (value,)
        if not _INFINITE.isdisjoint(values):  # one scan in C, not a test per value
            inf = next(v for v in values if v in _INFINITE)
            out.append(Violation(f"{section}.{field}", "non-finite number", detail=f"value {inf!r}"))
        elif sign is not None:
            test, rule = sign
            for v in values:
                if not test(v):
                    out.append(Violation(f"{section}.{field}", rule, detail=f"value {v!r}"))
                    break
    return out


def scenario_problems(scenario: Scenario) -> list:
    """Check every type invariant; return all violations (possibly empty).

    Side-effect free and idempotent.  "catchment exceeds walk reach" is a
    warning, not an error: widening s_o is a legitimate design (wide
    catchments simply imply long walks for the fixed-route baseline).
    +-inf that a field's own rule below refuses reports that rule alone.
    """
    grid, svc = scenario.grid, scenario.service
    out = _sign_problems("cost", scenario.cost) + _sign_problems("grid", grid) + _sign_problems("service", svc)

    if grid.n_stops == 0:
        out.append(Violation("grid.stop_chainages", "no stops"))
    if any(not b > a for a, b in zip(grid.stop_chainages, grid.stop_chainages[1:])):
        out.append(Violation("grid.stop_chainages", "unsorted stops"))
    if grid.stop_chainages and not (
        grid.stop_chainages[0] >= -_WEIGHT_TOL and grid.stop_chainages[-1] <= grid.gl_x + _WEIGHT_TOL
    ):
        out.append(Violation("grid.stop_chainages", "stop outside route"))
    if len(grid.stop_weights) != grid.n_stops:
        out.append(Violation("grid.stop_weights", "weights length mismatch"))
    elif grid.stop_weights and not abs(sum(grid.stop_weights) - 1.0) <= _WEIGHT_TOL:
        out.append(Violation("grid.stop_weights", "weights not normalized", detail=f"sum {sum(grid.stop_weights)!r}"))
    if len(grid.gl_y) != grid.n_stops:
        out.append(Violation("grid.gl_y", "catchment length mismatch"))

    if svc.n_parallel > 1 and svc.n_zones > 1:
        out.append(Violation("service.n_zones", "zonal and parallel variants cannot combine"))
    if not svc.v_w > 0 or not svc.v_d > svc.v_w:
        out.append(Violation("service.v_d", "speed ordering", detail="require v_d > v_w > 0"))
    if svc.v_h is not None and not svc.v_d <= svc.v_h <= _FLOAT_MAX:  # false for inf and nan
        out.append(Violation("service.v_h", "speed ordering", detail="require finite v_h >= v_d"))
    if svc.n_zones > 1 and svc.v_h is None:
        out.append(Violation("service.v_h", "missing v_h", detail="required when n_zones > 1"))
    w0, w1 = svc.warmup_window
    if not (0.0 <= w0 < w1 <= svc.horizon + _WEIGHT_TOL):
        out.append(Violation("service.warmup_window", "warmup beyond horizon"))

    if grid.gl_y and svc.s_o > 0 and svc.v_w > 0:
        if svc.s_o * svc.v_w < grid.max_gl_y - 1e-9:
            out.append(
                Violation(
                    "service.s_o",
                    "catchment exceeds walk reach",
                    severity="warning",
                    detail=f"s_o*v_w = {svc.s_o * svc.v_w:.3f} km < max gl_y = {grid.max_gl_y:.3f} km",
                )
            )
    out = [v for v in out if v.rule != "non-finite number" or not any(w.field == v.field and w is not v for w in out)]
    return out + _sign_problems("run", scenario)


def require_valid(scenario: Scenario) -> Scenario:
    """Return the scenario unchanged, raising ScenarioError on any error."""
    errors = [v for v in scenario_problems(scenario) if v.severity == "error"]
    if errors:
        raise ScenarioError(errors)
    return scenario


# --- scenario file parsing -------------------------------------------------


def _scaled(field: str, value, factor: float) -> float:
    """A finite JSON number converted to the canonical unit."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError([Violation(field, "non-numeric value", detail=f"value {value!r}")])
    if not abs(value) <= _FLOAT_MAX:  # false for inf, nan and integers beyond the float range
        raise ScenarioError([Violation(field, "non-finite number", detail=f"value {value!r}")])
    return value * factor


def _count(field: str, value) -> int:
    """An integer count: a JSON integer (kept exact), or a finite number
    with an integer value."""
    if isinstance(value, float) and _scaled(field, value, 1.0).is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError([Violation(field, "non-integer count", detail=f"value {value!r}")])
    return value


def _parse_section(section: str, data: dict) -> dict:
    if section not in data:
        raise ScenarioError(f"missing object {section!r}")
    raw = data[section]
    if not isinstance(raw, dict):
        raise ScenarioError(f"object {section!r} must be a mapping")
    accepted, required = _PARSE[section]
    parsed = {}
    for key, value in raw.items():
        if key not in accepted:
            raise ScenarioError(f"{section}: unknown field {key!r}")
        base, factor, shape = accepted[key]
        if base in parsed:
            raise ScenarioError(f"{section}: field {base!r} given twice")
        field = f"{section}.{key}"
        if factor is None:
            parsed[base] = _count(field, value)
        elif shape not in (None, "list" if isinstance(value, list) else "number"):
            raise ScenarioError([Violation(field, f"expected a {shape}", detail=f"value {value!r}")])
        elif isinstance(value, list):
            parsed[base] = [_scaled(field, v, factor) for v in value]
        else:
            parsed[base] = _scaled(field, value, factor)
    for missing in required:
        if missing not in parsed:
            raise ScenarioError(f"{section}: missing field {missing!r}")
    return parsed


def scenario_from_dict(data: dict, name: str = "scenario") -> Scenario:
    """Build a Scenario from parsed JSON; raises ScenarioError on any defect."""
    for key in data:
        if key != "name" and key not in _PARSE:
            raise ScenarioError(f"unknown top-level key {key!r}")
    name = data.get("name", name)  # it names the report files
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ScenarioError([Violation("name", "not a plain file name", detail=f"value {name!r}")])
    data = {"run": {}, **data}
    kw = {section: _parse_section(section, data) for section in _PARSE}
    if "warmup_window" in kw["service"] and len(kw["service"]["warmup_window"]) != 2:
        raise ScenarioError("service.warmup_window: expected [start, end]")
    scenario = Scenario(
        name=name,
        cost=CostParams(**kw["cost"]),
        grid=GridGeometry(**kw["grid"]),
        service=ServiceConfig(**kw["service"]),
        **kw["run"],
    )
    return require_valid(scenario)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize with explicit canonical-unit suffixes; round-trips exactly."""
    data = {"name": scenario.name}
    for section, (cls, table) in _SCHEMA.items():
        obj = scenario if cls is Scenario else getattr(scenario, section)
        values = ((written, getattr(obj, field)) for field, _, written, _ in table)
        data[section] = {k: list(v) if isinstance(v, tuple) else v for k, v in values if v is not None}
    return data


def load_scenario(path: Union[str, Path]) -> Scenario:
    path = Path(path)

    def unique(pairs: list) -> dict:  # json.loads keeps the last of a repeated key
        data = {}
        for key, value in pairs:
            if key in data:
                raise ScenarioError(f"{path.name}: key {key!r} given twice")
            data[key] = value
        return data

    try:
        data = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=unique)
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path.name}: parse error at byte {exc.start}: not UTF-8") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path.name}: parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path.name}: expected a JSON object")
    return scenario_from_dict(data, name=path.stem)


def save_scenario(scenario: Scenario, path: Union[str, Path]) -> None:
    text = json.dumps(scenario_to_dict(scenario), indent=2) + "\n"
    Path(path).parent.mkdir(parents=True, exist_ok=True)  # made only once the scenario has serialised
    Path(path).write_text(text)
