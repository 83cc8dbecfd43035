"""The host's current speed, measured by a fixed reference kernel.

On a shared host the speed of the whole machine drifts by a third and
more over minutes, for every program alike.  The kernel below does the
same kinds of work as the package (big-integer elimination, interpreter
loops, reads scattered over more memory than a core's cache), shares no
code with it and never changes.
Timing it next to every call gives the host's speed at that moment, and a
time scaled by `REFERENCE_S / kernel time` reads as if the call had run on
the reference host.  A change to the package moves the scaled time; a
change in the host's speed moves both and largely cancels (see
perfbench/README.md, Steadiness).
"""

from __future__ import annotations

import random
import statistics
from array import array
from time import perf_counter

# Median kernel time on the reference host: Intel Xeon at 2.1 GHz, 2 vCPU,
# Python 3.11.7.  Scaled times are in seconds on that host.
REFERENCE_S = 0.011

_rng = random.Random(20200203)
_MATRIX = [[_rng.randrange(-3, 4) for _ in range(40)] for _ in range(40)]
_CHAIN = array("i", range(1 << 19))  # 2 MB, more than a core's L2 cache
_rng.shuffle(_CHAIN)


def _determinant(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) elimination on a copy of `rows`."""
    a = [row[:] for row in rows]
    n, prev, sign = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        pivot, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i, lead = a[i], a[i][k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * a[-1][-1]


def _int_loop(count: int) -> int:
    total = 0
    for i in range(count):
        total += i * i % 7
    return total


def _chase(steps: int) -> int:
    """Follow the random permutation _CHAIN; most steps miss the L2 cache."""
    i = 0
    for _ in range(steps):
        i = _CHAIN[i]
    return i


def kernel() -> tuple[int, int, int]:
    return _determinant(_MATRIX), _int_loop(40_000), _chase(24_000)


def sample() -> float:
    """Seconds of one kernel run."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Gauge:
    """Samples the kernel after every call and gives each call its speed factor.

    After a call of t seconds the kernel runs 1 + 5t times, at most seven,
    so a long call is bracketed by the samples after the call before it and
    those after itself.  The factor uses the median of the last fourteen
    samples: one sample that a stray interrupt slowed does not move it,
    while drift over seconds does.
    """

    WINDOW = 14
    RUNS_PER_SECOND = 5

    def __init__(self):
        kernel()  # the first run is slower
        self.samples = [sample()]

    def factor(self, seconds: float) -> float:
        """REFERENCE_S over the recent kernel time, for work of `seconds`
        that ended now."""
        runs = min(self.WINDOW // 2, 1 + int(seconds * self.RUNS_PER_SECOND))
        self.samples = [*self.samples, *(sample() for _ in range(runs))][-self.WINDOW :]
        return REFERENCE_S / statistics.median(self.samples)
