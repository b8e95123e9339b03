"""A fixed piece of reference work that gauges the machine's speed.

The host this benchmark runs on is shared, and its speed drifts: one round
of the dual-closed-form task list has taken from 3.2 to 7.3 s on different
hours, and within one set of ten runs the quartiles of the raw round times
lay 40-60% of their median apart.  A timing that moves that much cannot
resolve a change of a few percent.  So the benchmark times
:func:`reference_work` every half second of a task, off the task clock,
and scales its timings to the speed at which the reference work takes
``REFERENCE_S`` seconds.  The reference work mixes what fblab's time goes
to (batched numpy products over sign patterns, small numpy steps driven
from Python as in Powell and Nelder-Mead, and small HiGHS linear
programs), and it calls nothing in fblab, so a change to fblab does not
move it."""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
import scipy.optimize

# the reference speed: one call of reference_work takes this many seconds.
# On the 2-core x86-64 sandbox this benchmark was written on (Python 3.11,
# numpy 2.4, scipy 1.17, one BLAS thread) a call took 21-58 ms, depending
# on the hour.
REFERENCE_S = 0.025

_rng = np.random.default_rng(20221003)
_SIGNS = np.where(_rng.random((1 << 11, 11)) < 0.5, -1.0, 1.0)
_COLUMNS = _rng.standard_normal((11, 24))
_POINTS = _rng.standard_normal((6, 8))
_LP_A = np.vstack([_rng.standard_normal((10, 6)), -_rng.standard_normal((10, 6))])
_LP_B = np.ones(20)
_LP_C = _rng.standard_normal(6)


def reference_work() -> float:
    """Fixed work, independent of fblab; returns a checksum."""
    total = 0.0
    # sign enumeration: |signs @ columns| maximised over patterns
    for _ in range(32):
        total += float(np.abs(_SIGNS @ _COLUMNS).max(axis=0).sum())
    # a search driven from Python, one small evaluation per step
    x = np.zeros(8)
    for k in range(2000):
        y = _POINTS @ x
        value = float(np.maximum(y, 0.0).sum() - np.abs(y).max())
        x[k % 8] += 1e-3 * (1.0 if value < 0 else -1.0)
        total += value
    # small linear programs over a polytope
    for sign in (1.0, -1.0) * 5:
        res = scipy.optimize.linprog(sign * _LP_C, A_ub=_LP_A, b_ub=_LP_B, bounds=(None, None), method="highs")
        total += float(res.fun) if res.status == 0 else 0.0
    return total


class Gauge:
    """Samples of the reference work taken during a run.

    While :meth:`ticking`, an interval timer interrupts whatever runs every
    ``every_s`` seconds of wall time to take a sample, so the samples are
    spread evenly over the time a task takes, however long the task is.
    ``spent`` adds up the time of the samples, so a caller can take it out
    of the task's time.
    """

    def __init__(self, every_s: float = 0.5) -> None:
        reference_work()  # warm-up, not recorded
        self.every_s = every_s
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # the timer fired during a sample
            return
        self._busy = True
        start = time.perf_counter()
        try:
            reference_work()
            self.samples.append(time.perf_counter() - start)
        finally:
            self.spent += time.perf_counter() - start
            self._busy = False

    @contextlib.contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self, first: int = 0) -> float:
        """The machine's speed relative to the reference speed, over the
        samples from index ``first`` on.  Samples evenly spread in wall time
        average the speed over that time, and a task's work at reference
        speed is its wall time times that average."""
        return statistics.fmean(REFERENCE_S / t for t in self.samples[first:])
