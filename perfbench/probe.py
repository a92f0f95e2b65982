"""A fixed speed probe, timed throughout a run to follow the host's speed.

On a shared host the same repetition can take from 9 to 13 s back to back,
and a slow or fast phase lasts longer than a run. The probe runs a fixed
piece of work of the same kind as srlab's: a Python loop over faces and
dictionary look-ups, and a Gaussian elimination mod 2^31 - 1 with numpy row
operations. It calls nothing in srlab, so no change to srlab moves it.

A time scaled by REFERENCE_S / (probe time) is the time the same work
would have taken when the probe took REFERENCE_S, about the probe's median
time on the machine where the benchmark was built (2-vCPU Intel Xeon VM,
Python 3.11.7, numpy 2.4.6). It takes the host's speed out of a time and
leaves the program's own.
"""

from __future__ import annotations

import random
import signal
import statistics
from bisect import bisect_left, bisect_right
from itertools import combinations
from time import perf_counter

import numpy as np

P = 2147483647
SIZE = 40
ROUNDS = 4
REFERENCE_S = 0.007


def _matrix() -> np.ndarray:
    rng = random.Random(20081044)
    return np.array([[rng.randrange(P) for _ in range(SIZE)] for _ in range(SIZE)],
                    dtype=np.int64)


_MATRIX = _matrix()


def _eliminate(a: np.ndarray) -> int:
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, P) % P
        below = a[r + 1:, c].copy()
        a[r + 1:] = (a[r + 1:] - (below[:, None] * a[r]) % P) % P
        r += 1
        if r == rows:
            break
    return r


def _faces() -> int:
    seen = {}
    for f in combinations(range(11), 4):
        seen[f] = len(seen)
    total = 0
    for f in seen:
        for g in combinations(f, 3):
            total += seen.get(g + (10,), 1)
    return total


def probe() -> float:
    """Seconds the fixed work took."""
    start = perf_counter()
    for _ in range(ROUNDS):
        if _eliminate(_MATRIX.copy()) != SIZE or _faces() <= 0:
            raise AssertionError("speed probe computed a wrong result")
    return perf_counter() - start


class Sampler:
    """Runs the probe every `every` seconds of wall time, also inside srlab calls.

    A SIGALRM interval timer interrupts the running code between two
    bytecodes, so an instance that takes seconds is sampled throughout, not
    only at its ends. A probe runs to its end before the interrupted code
    resumes, so it lies wholly inside or wholly outside any interval the
    caller times; `cost` gives the probes' wall time inside one, and
    `on_probe` is told each probe's wall time as it ends.
    """

    def __init__(self, every: float, on_probe=None):
        self.every = every
        self.on_probe = on_probe
        self.starts: list[float] = []
        self.times: list[float] = []
        self.costs: list[float] = []
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        self.times.append(probe())
        cost = perf_counter() - start
        self.starts.append(start)
        self.costs.append(cost)
        if self.on_probe is not None:
            self.on_probe(cost)
        self._busy = False

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def cost(self, start: float, end: float) -> float:
        """Wall time of the probes that ran between start and end."""
        return sum(self.costs[bisect_left(self.starts, start):bisect_left(self.starts, end)])

    def speed(self, start: float, end: float) -> float:
        """Median probe time from the last probe before start to the first after end."""
        lo = max(bisect_right(self.starts, start) - 1, 0)
        hi = bisect_left(self.starts, end) + 1
        return statistics.median(self.times[lo:hi])
