"""Host-speed probe: rescales measured seconds to the host's full speed.

The benchmark runs on a few cores of a shared host.  Other tenants slow
every core by up to 1.6x, in phases that switch within a second but can
also hold for minutes, and the slowdown is not time taken away: process
time rises with wall time.  No estimator over one run's samples (median,
fastest pass, fastest node call) escapes a phase that covers the whole run.

So the run measures the host's speed while it measures the program.  A
timer signal every ``INTERVAL_S`` runs a fixed pure-Python kernel
(``PROBE_FAST_S`` at full speed) and records how long it took.  A span of
the program is then rescaled by full speed / speed during the span, the
latter being the median probe time inside the span::

    rescaled = seconds * PROBE_FAST_S / median(probes in span)

Over 30-s windows of ``bd_chains`` on a 2-core host, this cut the
run-to-run spread (interquartile range / median) of the per-study fastest
times from 0.16 to 0.03.  The kernel is fixed here, so a program change
that makes the program slower shows in full: the probes do not get slower.
The handler runs between bytecodes only, so a span spent in one long C
call gets its probes from around it; a span with too few probes borrows
the latest ``MIN_PROBES`` before its end.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.004
# Median time of ``_kernel`` in the host's fast phases (2-core x86-64
# VM, Python 3.11): 0.5-s windows of an otherwise idle loop.
PROBE_FAST_S = 34e-6
MIN_PROBES = 5


def _kernel() -> int:
    s = 0
    for i in range(1000):
        s += i
    return s


class SpeedProbe:
    """Samples the kernel's time on a timer signal between ``start`` and
    ``stop``; ``factor(t0, t1)`` is the slowdown over a span of
    ``time.perf_counter`` readings."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def factor(self, t0: float, t1: float) -> float:
        """Median probe time in [t0, t1] over the full-speed time (1 when
        no probe ran yet)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        lo = max(0, min(lo, hi - MIN_PROBES))
        if hi == 0:
            return 1.0
        return statistics.median(self.durations[lo:hi]) / PROBE_FAST_S

    def rescale(self, seconds: float, t0: float, t1: float) -> float:
        return seconds / self.factor(t0, t1)
