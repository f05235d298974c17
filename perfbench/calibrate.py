"""A fixed numpy kernel timed alongside the workload, to cancel host speed.

The host's speed drifts by tens of percent over minutes and swings by as much
over seconds, in wall and CPU time alike. The kernel does the kinds of work
the pipeline does (a float32 GEMM of an im2col's shape, a SiLU over a large
array, filter passes and a loop of small array operations) and touches no
code of the package, so a change to the package cannot move it.

Timed next to a set-up or a round, the kernel misses the swings inside it:
kernel times taken before and after a 10 s stretch of work predict the
work's speed no better than a constant. Timed inside the work, a slice every
quarter second, it tracks the work closely. So ``Sampler`` runs one kernel
call from hooks the tracer puts on calls the package makes many times a
second, at most once per ``PERIOD_S``, and keeps its time apart so that it
can be taken out of the work's wall time. ``workload.py`` scales each round
by ``REFERENCE_S`` / (mean kernel time inside it), and the set-ups, which
make no hooked calls, by the kernel times after each of them: the gated
times are seconds at the reference speed of the host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import signal as sps

# median kernel time on the reference machine (see README.md)
REFERENCE_S = 0.015
# work between two kernel calls inside a round: about 5% overhead
PERIOD_S = 0.25

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((16384, 144), dtype=np.float32)
_B = _rng.standard_normal((144, 32), dtype=np.float32)
_C = np.empty((16384, 32), dtype=np.float32)
_X = _rng.standard_normal(800_000, dtype=np.float32)
_T = np.empty_like(_X)
_SIG = _rng.standard_normal((8, 1000))
_SOS = sps.butter(3, [0.5, 45.0], btype="bandpass", fs=100.0, output="sos")
_SMALL = _rng.standard_normal((16, 6))


def _kernel() -> None:
    # large results go to preallocated arrays, and the filter's temporaries
    # stay below malloc's mmap threshold, so the kernel's time does not
    # depend on the allocator state the package leaves behind
    np.matmul(_A, _B, out=_C)
    np.negative(_X, out=_T)
    np.exp(_T, out=_T)
    np.add(_T, 1.0, out=_T)
    np.divide(_X, _T, out=_T)
    for _ in range(4):
        sps.sosfiltfilt(_SOS, _SIG, axis=-1)
    s = _SMALL
    for _ in range(600):
        s = np.maximum(s, 0.0) * 0.5 + s.mean(axis=1, keepdims=True)


def kernel_s(seconds: float) -> float:
    """Median wall time of the kernel, repeated for about ``seconds``."""
    times = []
    t_end = time.perf_counter() + seconds
    while not times or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Runs the kernel from hooks inside the work, once per ``PERIOD_S``."""

    def __init__(self):
        self.on = False
        self.times: list[float] = []  # kernel times, in order
        self.spent = 0.0  # total kernel time, to take out of wall times
        self.last = 0.0

    def start(self) -> None:
        self.on, self.last = True, time.perf_counter()

    def stop(self) -> None:
        self.on = False

    def tick(self) -> None:
        if not self.on:
            return
        t0 = time.perf_counter()
        if t0 - self.last < PERIOD_S:
            return
        _kernel()
        self.last = time.perf_counter()
        self.times.append(self.last - t0)
        self.spent += self.last - t0
