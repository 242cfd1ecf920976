"""Build corridor geometry and demand weights from stop-boardings CSVs.

Input schema (header row required):
    stop_id, routes, chainage_km, boardings.
Optional: catchment_km (per-stop half-width override).

"routes" may list several route ids separated by commas; rows are kept
when the requested id matches one of them.  Boardings set the spatial
demand weights only; the demand rate itself is a service-level figure
configured per case, not derived from boardings totals.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union

from .model import GridGeometry, Scenario, ScenarioError, Violation, scenario_from_dict, scenario_to_dict


@dataclass(frozen=True)
class StopRecord:
    stop_id: str
    route_id: str
    chainage_km: float
    boardings: float
    catchment_km: Optional[float] = None


def _number(path: Path, line: int, what: str, text: str) -> float:
    """The finite number written in text; a refusal names the file and line."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path.name} line {line}: non-numeric {what} {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path.name} line {line}: non-finite {what} {text!r}")
    return value


def parse_boardings(path: Union[str, Path], route_id: str) -> list:
    """Parse stop records for one route; row-level errors, a non-numeric or
    non-finite number among them, carry the line number."""
    path = Path(path)
    records = []
    with open(path, newline="", encoding="utf-8-sig") as fh:  # utf-8-sig: drops the byte-order mark Excel writes
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for i, col in enumerate(header):
            if col and col in header[:i]:  # DictReader would read the last such column; blank names name no column
                raise ValueError(f"{path.name}: column {col!r} given twice")
        required = ("stop_id", "routes", "boardings", "chainage_km")
        for col in required:
            if col not in header:
                raise ValueError(f"{path.name}: missing required column {col!r}")
        for row in reader:
            line = reader.line_num
            missing = [col for col in required if row[col] is None]  # DictReader's fill for a short row
            if missing:
                raise ValueError(f"{path.name} line {line}: missing {', '.join(missing)}")
            if None in row:  # DictReader's key for the fields past the header
                raise ValueError(f"{path.name} line {line}: {len(header) + len(row[None])} fields, header has {len(header)}")
            routes = {r.strip() for r in row["routes"].replace(";", ",").split(",")}
            if route_id not in routes:
                continue
            boardings = _number(path, line, "boardings", row["boardings"])
            if boardings < 0:
                raise ValueError(f"{path.name} line {line}: negative boardings")
            chainage = _number(path, line, "chainage", row["chainage_km"])
            raw = (row.get("catchment_km") or "").strip()
            catchment = _number(path, line, "catchment", raw) if raw else None
            records.append(
                StopRecord(
                    stop_id=str(row["stop_id"]),
                    route_id=route_id,
                    chainage_km=chainage,
                    boardings=boardings,
                    catchment_km=catchment,
                )
            )
    if not records:
        raise ValueError(f"no stops for route {route_id!r}")
    return records


def build_grid(
    records: Sequence[StopRecord],
    l_x: float,
    l_y: float,
    d_xs: float,
    default_catchment_km: float,
) -> GridGeometry:
    """Grid geometry from stop records: route length is the last chainage,
    demand weights are boardings shares, duplicate chainages merge by
    summing boardings (widest catchment wins)."""
    if len(records) < 2:
        raise ValueError("need at least 2 stop records")
    ordered = sorted(records, key=lambda r: r.chainage_km)
    merged = []
    for rec in ordered:
        if merged and abs(rec.chainage_km - merged[-1].chainage_km) < 1e-9:
            prev = merged[-1]
            catchments = [c for c in (prev.catchment_km, rec.catchment_km) if c is not None]
            merged[-1] = replace(
                prev,
                boardings=prev.boardings + rec.boardings,
                catchment_km=max(catchments) if catchments else None,
            )
        else:
            merged.append(rec)
    total = sum(r.boardings for r in merged)
    if total <= 0:
        raise ValueError("all-zero boardings: demand weights undefined")
    return GridGeometry(
        l_x=l_x,
        l_y=l_y,
        gl_x=merged[-1].chainage_km,
        gl_y=tuple(r.catchment_km if r.catchment_km is not None else default_catchment_km for r in merged),
        stop_chainages=tuple(r.chainage_km for r in merged),
        stop_weights=tuple(r.boardings / total for r in merged),
        d_xs=d_xs,
    )


def build_route_model(
    records: Sequence[StopRecord],
    template: Scenario,
    default_catchment_km: float = 0.2,
    name: Optional[str] = None,
) -> Scenario:
    """Template scenario with its grid rebuilt from the stop records.

    Service-level figures (demand rate, headway, speeds, dwells) stay as
    configured in the template; boardings shape only where demand sits.
    Raises ScenarioError unless the result would load from a scenario file,
    or if default_catchment_km is not a finite positive km, even when every
    record names its own catchment.
    """
    if not (math.isfinite(default_catchment_km) and default_catchment_km > 0):
        raise ScenarioError([Violation("grid.gl_y", "default catchment not a finite positive km", detail=f"value {default_catchment_km!r}")])
    grid = build_grid(
        records,
        l_x=template.grid.l_x,
        l_y=template.grid.l_y,
        d_xs=template.grid.d_xs,
        default_catchment_km=default_catchment_km,
    )
    return scenario_from_dict(scenario_to_dict(replace(template, grid=grid, name=template.name if name is None else name)))
