"""Host speed from two fixed kernels that never touch locstruct.

On a host shared with other tenants the same code runs up to twice as slow
for tens of seconds at a time, and interpreted Python and BLAS slow down by
different amounts. Medians over more samples cannot remove a drift that
lasts a whole run. So the benchmark times these two kernels right
before and after each timed call, and at intervals inside it (see ``Watch``),
and divides the call's time by how slow the host was around it:

    slowdown = (python_s / NOMINAL["python"]) ** w * (blas_s / NOMINAL["blas"]) ** (1 - w)

where ``w`` is the workload's Python share. A slowdown of 1 means the host
ran the kernels at their nominal speed, so normalised seconds read as
seconds on such a host. The kernels depend on nothing in locstruct, so a
change to the library cannot move them; the raw timings are kept in the
result file next to the normalised ones.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Seconds each kernel takes on a quiet 2-vCPU Xeon host at one BLAS thread.
NOMINAL = {"python": 0.0115, "blas": 0.013}

_rng = np.random.default_rng(0)
_B = _rng.standard_normal((400, 400))
_SPD = _B @ _B.T + 400.0 * np.eye(400)


def _python_kernel() -> None:
    # dict traffic, calls and float arithmetic, like the library's Python loops
    d = {}
    s = 0.0
    for i in range(50_000):
        k = i & 255
        d[k] = d.get(k, 0.0) + i * 0.5
        s += len(str(k))


def _blas_kernel() -> None:
    for _ in range(4):
        scipy.linalg.cho_factor(_SPD)
        _SPD @ _SPD


def measure(python_share: float) -> float:
    """How many times slower than nominal the host runs right now, for work
    with the given Python share; only the kernels that share needs run."""
    slowdown = 1.0
    for kernel, name, weight in ((_python_kernel, "python", python_share),
                                 (_blas_kernel, "blas", 1.0 - python_share)):
        if weight > 0:
            t0 = time.perf_counter()
            kernel()
            slowdown *= ((time.perf_counter() - t0) / NOMINAL[name]) ** weight
    return slowdown


@dataclass
class Lap:
    """One timed call: raw seconds and the host slowdown around it."""

    seconds: float
    slowdown: float = math.nan

    @property
    def normalised(self) -> float:
        return self.seconds / self.slowdown


class Watch:
    """Times calls and measures the host right before and after each one.
    With ``sample_every`` it also measures every that many seconds inside a
    call, from a SIGALRM handler, which Python runs between bytecodes: a call
    of several seconds can meet several host speeds. The time spent in those
    measurements is taken out of the lap. A lap's slowdown is the geometric
    mean of its measurements; the one after a lap is the one before the next."""

    def __init__(self, python_share: float, sample_every: float = 0.0):
        self.python_share = python_share
        self.sample_every = sample_every
        self._last = measure(python_share)

    @contextlib.contextmanager
    def lap(self):
        samples = [self._last]
        inside = 0.0
        closing = False

        def on_alarm(signum, frame):
            nonlocal inside
            if closing:
                return
            t = time.perf_counter()
            samples.append(measure(self.python_share))
            inside += time.perf_counter() - t

        lap = Lap(math.nan)
        if self.sample_every:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.sample_every, self.sample_every)
        t0 = time.perf_counter()
        try:
            yield lap
        finally:
            closing = True
            if self.sample_every:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            lap.seconds = time.perf_counter() - t0 - inside
            self._last = measure(self.python_share)
            samples.append(self._last)
            lap.slowdown = math.exp(statistics.fmean(map(math.log, samples)))
