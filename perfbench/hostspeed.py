"""Host speed, read from a fixed reference kernel timed around and inside
solutions.

The benchmark shares a small host with other work, which slows this process
by 1.2 to 2 times in phases that last seconds to minutes.  Such a slowdown
stretches the program and a fixed piece of similar work alike, so every time
the benchmark reports is scaled to a reference host speed:

    reported = measured * REFERENCE_S / kernel_s

where `kernel_s` is the mean time the reference kernel takes just before,
during and just after the measurement.  The kernel lives here, not in the program, so a change to the
program moves the measured time and not the kernel.  A reported second is a
second on a host that runs the kernel in `REFERENCE_S`.

The kernel is a matrix-free conjugate-gradient solve of a shifted 5-point
Laplacian with zero-flux walls, written like the program's own solvers:
small numpy arrays, face fluxes and scalar reductions in a Python loop.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

N = 64                # grid of the kernel
ITERATIONS = 60
REPEATS = 9           # kernel runs per host-speed sample between solutions
STEP_REPEATS = 3      # kernel runs per host-speed sample inside a solution
STEP_INTERVAL = 0.25  # seconds between samples inside a solution, at least
REFERENCE_S = 5e-3    # kernel time at the reference speed


def kernel() -> float:
    """One fixed CG solve on the N x N grid; returns its final residual."""
    n = N
    h = 1.0 / n
    c = np.cos(np.pi * (np.arange(n) + 0.5) * h)
    b = np.outer(c, c)
    gx = np.zeros((n + 1, n))
    gy = np.zeros((n, n + 1))

    def apply(f):
        gx[1:-1, :] = (f[1:, :] - f[:-1, :]) / h
        gy[:, 1:-1] = (f[:, 1:] - f[:, :-1]) / h
        return f - 1e-3 * ((gx[1:, :] - gx[:-1, :]) / h + (gy[:, 1:] - gy[:, :-1]) / h)

    x = np.zeros((n, n))
    r = b.copy()
    p = r.copy()
    rr = float(np.vdot(r, r))
    for _ in range(ITERATIONS):
        q = apply(p)
        alpha = rr / float(np.vdot(p, q))
        x += alpha * p
        r -= alpha * q
        rr_new = float(np.vdot(r, r))
        p = r + (rr_new / rr) * p
        rr = rr_new
    return rr


class Gauge:
    """Host-speed samples taken between and inside measurements.

    Call `sample()` before the first measurement and after each one.  Inside
    a measurement, `pause()` at a step boundary takes a shorter sample when
    STEP_INTERVAL has passed since the last one, and returns the seconds it
    took, which the caller leaves out of the measured time.  The host speed
    changes within a solution of a few seconds, so samples inside it follow
    the speed the solution saw better than the two at its ends."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self, repeats: int = REPEATS) -> float:
        """Record the median of `repeats` kernel timings; return the time
        the sample took."""
        start = time.perf_counter()
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(times))
        self._last = time.perf_counter()
        return self._last - start

    def pause(self) -> float:
        if time.perf_counter() - self._last < STEP_INTERVAL:
            return 0.0
        return self.sample(STEP_REPEATS)

    def factor(self, first: int, last: int) -> float:
        """Scale factor of a measurement that samples first..last (both
        included) bracket."""
        around = self.samples[first:last + 1]
        return REFERENCE_S * len(around) / sum(around)
