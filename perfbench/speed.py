"""Elapsed time scaled to a reference machine speed.

The benchmark machine is a 2-vCPU KVM guest whose speed shifts while it runs:
the same three-point MF fit took 0.08 s in some stretches and 0.13 s in
others, minutes apart, with process CPU time equal to wall time throughout.
No run length affordable here averages that out.  ``SpeedClock`` times a fixed
loop (small matrix-vector products, exponentials, small numpy calls and plain
interpreter work, as in an NGD step, and independent of taplab) every
``INTERVAL_S`` seconds from a SIGALRM handler.  A window's scaled time is its
wall time, less the samples taken inside it, times ``REF_SAMPLE_S`` over the
mean sample time around it.  In two sets of 10 runs per workload the spread
(IQR/median) of the round time was 0.05-0.18 in wall time and 0.02-0.06
scaled.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.25
# median duration of one sample on the reference machine (2-vCPU Xeon KVM guest)
REF_SAMPLE_S = 3.0e-3
_STEPS = 40


class SpeedClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._X = rng.normal(size=(300, 200))
        self._v = rng.normal(size=200)
        self._a = rng.normal(size=(200, 3))
        self._small = rng.normal(size=8)
        self._ends = []  # end time of each sample, ascending
        self._durations = []
        self._old = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        X, v, a, small = self._X, self._v, self._a, self._small
        for _ in range(_STEPS):
            r = X @ v
            g = X.T @ r
            e = np.exp(a - a.max(axis=1, keepdims=True))
            float(g @ g) + float((e / e.sum(axis=1)[:, None]).sum())
            # per-call overhead of small numpy calls, and plain interpreter work
            x = np.asarray(small, dtype=np.float64)
            float(np.exp(x - x.max()).sum())
            d = {}
            for i in range(50):
                d[i & 7] = d.get(i & 7, 0) + i * i
        t1 = time.perf_counter()
        self._ends.append(t1)
        self._durations.append(t1 - t0)

    def __enter__(self):
        self._sample()  # warm-up: the first pass runs about 15 % slow
        self._ends.clear()
        self._durations.clear()
        self._sample()
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def elapsed(self, t0, t1):
        """(wall, scaled) seconds of the window [t0, t1], both without the
        samples taken inside it; scaled is in reference-machine seconds."""
        lo = bisect.bisect_left(self._ends, t0)
        hi = bisect.bisect_right(self._ends, t1)
        wall = (t1 - t0) - sum(self._durations[lo:hi])
        around = self._durations[max(lo - 2, 0):hi + 2]  # two on each side
        return wall, wall * REF_SAMPLE_S * len(around) / sum(around)
