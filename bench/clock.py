"""Times scaled to a reference CPU speed.

On a machine shared with other work the speed of one CPU can change by half
for a minute at a time, far more than the changes the benchmark has to
resolve.  Every timed call is therefore paired with a calibration loop: a
fixed piece of pure Python shaped like the closure's inner loop (a method
call, list-of-lists indexing and bit operations), which uses no ``qsr``
code.  A time divided by ``speed`` (calibration time over ``REF_S``) reads in
seconds at the reference speed.  The raw times are kept in the details.
"""

from __future__ import annotations

import random
import statistics
import time

# the loop's median time in seconds under CPython 3.11 on an idle x86-64 vCPU
REF_S = 4.1e-4
# calibration samples on each side of a call
WINDOW = 5

_rng = random.Random(0)
_CELLS = [_rng.randrange(32) for _ in range(400)]


class _Table:
    def __init__(self) -> None:
        self.rows = [[_rng.randrange(32) for _ in range(32)] for _ in range(32)]

    def compose(self, a: int, b: int) -> int:
        return self.rows[a][b]


_TABLE = _Table()


def calibrate() -> float:
    """Seconds taken by one calibration loop."""
    compose, cells, changed = _TABLE.compose, _CELLS, 0
    t0 = time.perf_counter()
    for k in range(3000):
        a = cells[k % 400]
        if a & compose(a, cells[k * 7 % 400]) != a:
            changed += 1
    return time.perf_counter() - t0


def speeds(samples: list[float]) -> list[float]:
    """Speed while call i ran, from samples i (before it) and i + 1 (after it).

    Each speed is the median of the samples within WINDOW of the call.
    """
    return [statistics.median(samples[max(0, i - WINDOW + 1):i + WINDOW + 1]) / REF_S
            for i in range(len(samples) - 1)]


def around(fn) -> tuple[object, float]:
    """Call ``fn`` between calibration samples; its result and the speed while it ran."""
    before = [calibrate() for _ in range(WINDOW)]
    result = fn()
    after = [calibrate() for _ in range(WINDOW)]
    return result, statistics.median(before + after) / REF_S
