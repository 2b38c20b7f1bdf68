"""A fixed reference kernel that measures the host's current speed.

The kernel shares no code with the package: a little pure-Python
combinatorics and a few small dense complex factorizations, the same mix
of interpreter and numpy work as the workloads.  Timing it between
operations throughout a run tells how fast the host was during that run.
"""
from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

# The kernel's median time on a host of reference speed.  Scaled times are
# what the same work would take on such a host.
REFERENCE_MS = 1.0

_MATRIX = (np.random.default_rng(0).standard_normal((12, 12))
           + 1j * np.random.default_rng(1).standard_normal((12, 12)))


def kernel() -> None:
    counts: dict[int, int] = {}
    for combo in itertools.combinations(range(2, 14), 4):
        degree = sum(2 * m - 1 for m in combo)
        counts[degree] = counts.get(degree, 0) + 1
    a = _MATRIX
    for _ in range(4):
        q, _ = np.linalg.qr(a)
        np.linalg.eigh(a + a.conj().T)
        a = q @ a


class SpeedProbe:
    """Times the kernel at most once per ``every`` seconds of the run."""

    def __init__(self, every: float = 0.1) -> None:
        self.every = every
        self.samples: list[float] = []
        self._last = -float("inf")
        for _ in range(20):  # warm the kernel's own code paths
            kernel()

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._last >= self.every:
            kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - now)

    def kernel_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)

    def to_reference(self) -> float:
        """Factor that turns a time measured in this run into the time on a
        host of reference speed."""
        return REFERENCE_MS / self.kernel_ms()
