"""Host-speed probe: times a fixed kernel in a background thread.

On a virtual machine that shares physical cores with other tenants, each
vCPU can switch between a fast state and one about 1.5-1.8x slower, for
spells of a tenth of a second to minutes, and process CPU time slows down
as much as wall time (README.md has measurements).  The probe runs a small
fixed kernel, independent of the package, every PERIOD_S seconds on the
same CPU as the measured code and records its thread CPU time.  A timing
divided by `slowdown()` over the same interval is that timing at the speed
on which the kernel takes NOMINAL_S: the unit stays seconds, and the
spells cancel out to the extent that they slow the kernel and the package
alike.
"""

import bisect
import os
import threading
import time

import numpy as np
from scipy.linalg import solve_banded

PERIOD_S = 0.05
NOMINAL_S = 0.0012  # kernel CPU time that timings are scaled to (see README)
MIN_SAMPLES = 4  # probes averaged for an interval shorter than PERIOD_S

_N = 33
_U0 = np.sin(np.linspace(0.0, 3.0, _N))
_X = np.linspace(0.0, 1.0, 64)


def kernel():
    """A mix like the package's: a Python loop of small-array ops, and small
    Newton steps of a 1D p-Laplacian with a banded solve."""
    acc = 0.0
    for i in range(150):
        acc += float((_X * i + 1.0).sum())
    h = 1.0 / (_N - 1)
    u = _U0.copy()
    for _ in range(12):
        g = np.diff(u) / h
        m = np.abs(g) + 1e-3
        r = np.zeros(_N)
        r[:-1] -= m * g
        r[1:] += m * g
        r += h * (u - 0.5)
        d = 2.0 * m / h
        band = np.zeros((3, _N))
        band[1, :-1] += d
        band[1, 1:] += d
        band[1] += h
        band[0, 1:] = -d
        band[2, :-1] = -d
        u = u - 0.5 * solve_banded((1, 1), band, r)
    return acc + float(u.sum())


class SpeedProbe:
    """Context manager: pins the process to one CPU and probes its speed."""

    def __init__(self):
        self.stamps = []  # perf_counter when each probe ended
        self.times = []  # thread CPU seconds each probe took
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            tic = time.thread_time()
            kernel()
            self.times.append(time.thread_time() - tic)
            self.stamps.append(time.perf_counter())

    def __enter__(self):
        # The probe thread inherits the affinity, so both share one CPU.
        self._cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._cpus)})
        kernel()  # warm up before the first sample
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._cpus)

    def slowdown(self, t0, t1):
        """Mean probe time over [t0, t1] divided by NOMINAL_S.

        An interval holding fewer than MIN_SAMPLES probes is widened to the
        MIN_SAMPLES probes nearest its middle.  Returns 1.0 before any probe.
        """
        n = min(len(self.stamps), len(self.times))
        if n == 0:
            return 1.0
        stamps = self.stamps[:n]
        lo, hi = bisect.bisect_left(stamps, t0), bisect.bisect_right(stamps, t1)
        mid = 0.5 * (t0 + t1)
        while hi - lo < min(MIN_SAMPLES, n):
            if lo == 0 or (hi < n and stamps[hi] - mid < mid - stamps[lo - 1]):
                hi += 1
            else:
                lo -= 1
        return float(np.mean(self.times[lo:hi])) / NOMINAL_S
