"""Machine-speed probe for the timed jobs.

On shared hosts the CPU speed a process gets can switch between levels
about 60% apart within seconds, and stay in one level for minutes, so
raw wall times of one workload spread far wider across runs than any
useful regression bound.  The probe runs a fixed pure-Python kernel
(big-integer, rational and dict work, the kind the engine does) in a
background thread every PERIOD_S seconds and records how long it took.  A job's
wall time is rescaled to reference speed by REFERENCE_KERNEL_S over the
mean kernel time sampled while the job ran: "reference seconds" are the
seconds the job would take on a machine that runs the kernel in exactly
REFERENCE_KERNEL_S.  The kernel shares no code with the engine, so a
change to the engine moves the rescaled time as much as the raw time.
"""

from __future__ import annotations

import bisect
import threading
import time
from fractions import Fraction

PERIOD_S = 0.05
REFERENCE_KERNEL_S = 0.0006
_BASE = 3 ** 400


def kernel():
    """About 0.6 ms of big-integer, rational and dict work."""
    acc = 0
    for i in range(700):
        acc ^= (_BASE * (i + 7)) % 1000003
    q = Fraction(0)
    for i in range(1, 60):
        q += Fraction(i * 7 + 1, i * i + 3)
    table = {}
    for i in range(1500):
        table[i & 63] = table.get(i & 63, 0) + i
    return acc, q, table


def factor_now(runs=10):
    """Reference seconds per wall second from back-to-back kernel runs, for
    a timing taken while no probe thread runs (a probe sampling beside a
    child process would share the core with it and misread the speed)."""
    total = 0.0
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        total += time.perf_counter() - t0
    return REFERENCE_KERNEL_S * runs / total


class SpeedProbe:
    """Context manager: samples the kernel time until it exits."""

    def __init__(self):
        self.starts = []
        self.times = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _sample(self):
        t0 = time.perf_counter()
        kernel()
        self.times.append(time.perf_counter() - t0)
        self.starts.append(t0)  # after times: a reader never sees a start without its time

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("speed probe thread did not stop")

    def mean_kernel_s(self, t0, t1):
        """Mean kernel time of the samples started in [t0, t1], or of the
        last sample before t1 when the window holds none."""
        starts = self.starts[:]
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_right(starts, t1)
        window = self.times[min(lo, hi - 1):hi]
        return sum(window) / len(window)

    def factor(self, t0, t1):
        """Multiply a wall time measured in [t0, t1] by this to get
        reference seconds."""
        return REFERENCE_KERNEL_S / self.mean_kernel_s(t0, t1)
