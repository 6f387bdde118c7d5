"""Machine speed, measured beside the operations.

On a shared 2-vCPU virtual machine the same desk operation took from 52 to
98 ms within three minutes, while its ratio to the fixed kernel below
stayed within 3.75-4.12: the machine's speed moves all CPU work together,
in phases of seconds to minutes.  The benchmark therefore times the kernel
every PROBE_EVERY_S seconds of the run and reports end-to-end times in
reference seconds: wall seconds scaled by REFERENCE_KERNEL_S over the
kernel's time around the operation.  The kernel runs none of the program's
code, so a change to the program leaves it alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: seconds between kernel timings, checked between operations
PROBE_EVERY_S = 0.5

#: kernel timings within this many seconds of an interval set its speed
WINDOW_S = 1.0

#: the kernel's time at the reference speed (a fast phase of the machine above)
REFERENCE_KERNEL_S = 0.008

_MATRIX = np.random.RandomState(0).rand(12, 12) + 12.0 * np.eye(12)


def kernel() -> float:
    """Seconds for a fixed mix of Python and small-matrix NumPy work."""
    start = time.perf_counter()
    table = {}
    for i in range(20000):
        table[i % 997] = table.get(i % 997, 0) + i
    for _ in range(100):
        np.linalg.eigvals(_MATRIX)
        np.linalg.solve(_MATRIX, _MATRIX[0])
    return time.perf_counter() - start


class Speed:
    """Kernel timings over a run, and the scale they give each interval."""

    def __init__(self):
        kernel()  # warm-up, not kept
        self.samples = []  # (midpoint, kernel seconds)
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        seconds = kernel()
        self.samples.append((start + seconds / 2.0, seconds))

    def tick(self) -> None:
        """Time the kernel if PROBE_EVERY_S has passed since the last timing."""
        if time.perf_counter() - self.samples[-1][0] >= PROBE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end]."""
        near = [k for t, k in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - (start + end) / 2.0))[1]]
        return REFERENCE_KERNEL_S / statistics.median(near)
