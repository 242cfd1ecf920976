"""Output checks.  Each returns a list of problems; an empty list means the
output is right.  The Ledger turns problems into failed operations."""
from __future__ import annotations

import csv
import io
import sys

# Operator cost of the fixed route over the whole horizon, per bundled
# corridor: gamma_o * route length * departures.  Demand does not enter it.
FIXED_OPERATOR_COST = {"model1": 120.0, "model2": 120.0, "cta126": 130.8, "cta84": 72.0}

SCREEN_ORDER = ["cta126", "model1", "cta84", "model2"]


class Ledger:
    """Operations attempted and failed; an operation fails at most once."""

    def __init__(self):
        self.attempted = 0
        self.failed = set()

    def new_op(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def report(self, ops, problems) -> bool:
        """Mark ops failed if there are problems; True when there are none."""
        ops = [ops] if isinstance(ops, int) else list(ops)
        for p in problems:
            print(f"check failed (ops {ops[:3]}{'...' if len(ops) > 3 else ''}): {p}", file=sys.stderr)
        if problems:
            self.failed.update(ops)
        return not problems


def same(label: str, got, want) -> list:
    return [] if got == want else [f"{label} differs from the first repeat of the same seed"]


def operator_cost(name: str, summary) -> list:
    """Every replication pays the same fixed-route operator cost."""
    want = FIXED_OPERATOR_COST[name]
    got = (summary.median, summary.p2_5, summary.p97_5)
    if len(set(got)) != 1 or abs(got[0] - want) > 1e-9:
        return [f"{name}: fixed operator cost {got}, want {want}"]
    return []


def deltas_equal(label: str, replayed, reported) -> list:
    if len(replayed) != len(reported):
        return [f"{label}: {len(replayed)} replayed replications, {len(reported)} reported"]
    for r, (a, b) in enumerate(zip(replayed, reported)):
        if a != b:
            return [f"{label}: replication {r} cost difference {a!r} replayed, {b!r} reported"]
    return []


def served_once(label: str, request_ids, logs) -> list:
    """Each request is served at most once, so it is served or unserved
    exactly once; nothing outside the demand draw is served."""
    served = [rid for log in logs for rid in log.served_ids]
    problems = []
    if len(served) != len(set(served)):
        problems.append(f"{label}: a request was served more than once")
    if not set(served) <= set(request_ids):
        problems.append(f"{label}: served a request that was never made")
    return problems


def acceptance(med: dict) -> list:
    """Reference intervals of acceptance criteria 1-5, as (corridor, problem).

    med[corridor][key] holds medians; keys are "delta_tc" and
    "<mode>.<metric>".
    """
    m1, m2, c126, c84 = (med[n] for n in ("model1", "model2", "cta126", "cta84"))
    rules = [
        ("model1", "1 fixed wait", 6.4 <= m1["fixed.avg_wait_min"] <= 8.6 and abs(m1["fixed.avg_wait_min"] - 7.5) <= 0.5),
        ("model1", "1 fixed ivtt", 12.2 <= m1["fixed.avg_ivtt_min"] <= 15.6),
        ("model1", "2 amsod wait", 6.6 <= m1["amsod.avg_wait_min"] <= 11.2),
        ("model1", "2 amsod ivtt", 13.5 <= m1["amsod.avg_ivtt_min"] <= 19.4),
        ("model1", "2 delta_tc", -134.0 <= m1["delta_tc"] < 0.0),
        ("model2", "3 amsod wait", 12.6 <= m2["amsod.avg_wait_min"] <= 20.6),
        ("model2", "3 delta_tc", -312.0 <= m2["delta_tc"] < 0.0),
        ("cta126", "4 delta_tc", -299.0 <= c126["delta_tc"] <= -67.0),
        ("cta126", "4 amsod ride shorter", c126["amsod.avg_ivtt_min"] < c126["fixed.avg_ivtt_min"]),
        ("cta84", "5 delta_tc", -193.0 <= c84["delta_tc"] < 0.0),
        ("cta84", "5 fixed wait", abs(c84["fixed.avg_wait_min"] - 10.0) <= 0.5),
    ]
    return [(name, f"criterion {label} of {name}: median outside its reference interval")
            for name, label, ok in rules if not ok]


def screen_ranking(csv_text: str) -> list:
    got = [row["scenario"] for row in csv.DictReader(io.StringIO(csv_text))]
    return [] if got == SCREEN_ORDER else [f"screen ranking {got}, want {SCREEN_ORDER}"]
