"""A fixed reference loop that measures the machine's speed during a run.

On a shared host the same commands run up to 1.5 times slower for seconds or
minutes at a time.  The probe below is fixed work of the kinds the program
does: Python dicts and sorting, numpy without BLAS, and scipy's breadth-first
search.  A sample is the median of three probe times, taken between commands
at most every PROBE_EVERY_S.  Each timed stretch (one command, or one
set-up) is divided by its own speed factor: the mean of the sample just
before it and the sample just after it, over REFERENCE_S.  Keep the probe
fixed: changing it rescales every normalised figure.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

# Median probe time on the 2-core Intel Xeon the benchmark was sized on.
REFERENCE_S = 0.0056
PROBE_EVERY_S = 0.5
PROBES_PER_SAMPLE = 3


class Speed:
    """Probe samples taken through a run, with the time each was taken."""

    def __init__(self):
        rng = np.random.default_rng(20171215)
        n = 400
        rows = rng.integers(0, n, 4000)
        cols = rng.integers(0, n, 4000)
        self._graph = csr_matrix((np.ones(4000, dtype=np.int8), (rows, cols)), shape=(n, n))
        self._array = rng.random((200, 200))
        self.samples: list[float] = []
        self.times: list[float] = []

    def _probe(self) -> float:
        t0 = time.perf_counter()
        acc: dict[int, int] = {}
        for i in range(12000):
            acc[i % 997] = acc.get(i % 997, 0) + i
        sorted(acc.values())
        shortest_path(self._graph, directed=False, unweighted=True, indices=np.arange(24))
        for _ in range(3):
            a = np.sort(self._array, axis=1).cumsum(axis=0)
            a[self._array > 0.5].sum()
        return time.perf_counter() - t0

    def sample(self) -> None:
        self._probe()  # the first run after other work is cache-cold: discard it
        self.samples.append(statistics.median(self._probe() for _ in range(PROBES_PER_SAMPLE)))
        self.times.append(time.perf_counter())

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """Speed factor of the stretch from ``t0`` to ``t1``: above 1 when the machine runs slow.

        The mean of the last sample taken by ``t0`` and the first taken after
        ``t1``, over the reference; one of them alone where the other is missing.
        """
        k = bisect.bisect_right(self.times, t0)
        around = self.samples[max(k - 1, 0) : k] + self.samples[bisect.bisect_left(self.times, t1) :][:1]
        return statistics.fmean(around) / REFERENCE_S
