"""Host-speed calibration for timing on a shared machine.

On a host whose cores are shared with other tenants, their load changes
from minute to minute and slows whole runs by up to 2x, CPU time
included.  So the untraced run interleaves a fixed calibration block
with its passes and set-ups and reports every time in reference seconds:

    reference time = measured time * REF_BLOCK_S / block time

where the block time is the mean of the blocks just before and just after
the timed event.  A reference second is a second on a host on which one
block takes REF_BLOCK_S.  A change to the package moves the event's time
and not the block's, so it shows in full; a host that is slower in both
cancels out.

The block is Python work of the simulator's kind (small frozen objects,
attribute access, float arithmetic, sorts with key functions, dicts and
sets) with small numpy draws; it uses nothing from the package, so no
change to the package moves it.
"""
from __future__ import annotations

import resource
import time
from dataclasses import dataclass

import numpy as np

REF_BLOCK_S = 0.05  # one block, wall and CPU, on the reference host
ROUNDS = 80  # rounds per block


@dataclass(frozen=True)
class _Stop:
    id: int
    x: float
    y: float


def _round(rng: np.random.Generator) -> float:
    xy = rng.random((300, 2)) * 10.0
    stops = [_Stop(i, x, y) for i, (x, y) in enumerate(xy.tolist())]
    by_x = sorted(stops, key=lambda s: (s.x, s.y))
    index = {s.id: s for s in by_x}
    # greedy nearest-neighbour visits over a moving window, in plain floats
    here_x = here_y = 0.0
    seen = set()
    total = 0.0
    for k in range(0, len(by_x), 10):
        window = [s for s in by_x[k : k + 40] if s.id not in seen]
        best = min(window, key=lambda s: abs(s.x - here_x) + abs(s.y - here_y))
        total += abs(best.x - here_x) + abs(best.y - here_y)
        here_x, here_y = best.x, best.y
        seen.add(best.id)
    total += sum(index[i].y for i in range(0, len(stops), 3))
    total += float(np.abs(np.diff(xy[:, 0])).sum())
    return total


def block() -> float:
    """One calibration block; its result is the same on every call."""
    rng = np.random.default_rng(20250101)
    return sum(_round(rng) for _ in range(ROUNDS))


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime


class HostSpeed:
    """Calibration blocks between timed events.

    Call `tick()` before the first event and after every event; event k
    (counted from 0) lies between blocks k and k+1.
    """

    def __init__(self):
        self.walls = []
        self.cpus = []
        self.result = None

    def tick(self) -> None:
        t0, c0 = time.perf_counter(), _cpu()
        got = block()
        self.walls.append(time.perf_counter() - t0)
        self.cpus.append(_cpu() - c0)
        if self.result is None:
            self.result = got
        elif got != self.result:
            raise RuntimeError("the calibration block gave a different result")

    def wall_scale(self, k: int) -> float:
        """Factor from seconds of this host to reference seconds, around event k."""
        return REF_BLOCK_S / ((self.walls[k] + self.walls[k + 1]) / 2)

    def cpu_scale(self, k: int) -> float:
        return REF_BLOCK_S / ((self.cpus[k] + self.cpus[k + 1]) / 2)
