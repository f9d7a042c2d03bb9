"""A clock that runs in seconds of a reference host.

The benchmark's host is shared and its speed moves in phases: an
unchanged ``sekvm_wdrf`` pass took between 0.45 s and 0.99 s within
75 s on the 2-CPU Xeon host the benchmark was tuned on, with no CPU
steal time reported.  A fixed pure-Python probe slowed down with it
(interquartile spread over 91 alternating samples: 25% for the pass,
30% for the probe, 8% for their ratio), so timing against the probe
instead of the wall cancels most of that drift.

:class:`CalibratedClock` re-runs the probe between timed operations,
at most every :data:`INTERVAL_S` seconds, and advances at
``REFERENCE_PROBE_S / probe seconds`` times the wall clock in between;
time spent probing is not counted.  The probe exercises only the
interpreter, never the program under test, so a change to the program
cannot move it.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List

#: Probe time on the reference host (the 2-CPU Xeon host above,
#: Python 3.11.7, at its fastest; the probe took 9 to 26 ms there
#: depending on load).
REFERENCE_PROBE_S = 0.010

#: Minimum wall seconds between two probes.
INTERVAL_S = 0.5

#: Probe repetitions; the median is kept.
PROBE_REPS = 3


#: Iterations of one full probe.
PROBE_N = 12000


def _probe_work(n: int = PROBE_N) -> int:
    """A miniature state-space search: tuple states, a visited set and a
    stack, the same mix of allocation, hashing and set probes as the
    explorer, in pure Python."""
    seen = set()
    frontier = [(0, (0, 0), ())]
    hits = 0
    for i in range(n):
        a, b, c = frontier[-1]
        state = (i % 4093, (b[1], a & 15), c[-3:] + (i & 3,))
        if state in seen:
            hits += 1
        else:
            seen.add(state)
            frontier.append(state)
        if i % 5 == 0 and len(frontier) > 1:
            frontier.pop()
    return hits


def probe(raw: Callable[[], float] = time.perf_counter,
          reps: int = PROBE_REPS, n: int = PROBE_N) -> float:
    """Seconds the probe work takes right now (median of *reps* runs),
    scaled to a full probe when *n* is fewer iterations."""
    times = []
    for _ in range(reps):
        start = raw()
        _probe_work(n)
        times.append((raw() - start) * PROBE_N / n)
    return statistics.median(times)


class CalibratedClock:
    """Monotonic seconds scaled to the reference host.

    With ``calibrate=False`` it is the plain wall clock (factor 1), as
    used by traced runs, whose times are compared with each other only.
    """

    def __init__(self, calibrate: bool = True,
                 raw: Callable[[], float] = time.perf_counter) -> None:
        self.calibrate = calibrate
        self._raw = raw
        self._scaled = 0.0
        self._mark = raw()
        self.factor = 1.0
        self.probes: List[float] = []
        #: Wall seconds spent probing so far.
        self.spent_s = 0.0
        self.recalibrate()

    def now(self) -> float:
        """Reference-host seconds since an arbitrary origin."""
        return self._scaled + (self._raw() - self._mark) * self.factor

    def recalibrate(self) -> None:
        """Probe the host now; the probe's own time is not counted."""
        if not self.calibrate:
            return
        self._scaled = self.now()
        start = self._raw()
        seconds = probe(self._raw)
        self.probes.append(seconds)
        self.factor = REFERENCE_PROBE_S / seconds
        self._mark = self._raw()
        self.spent_s += self._mark - start

    def span(self, raw_seconds: float, factor_before: float) -> float:
        """Calibrated length of an operation that took *raw_seconds* on
        the wall clock and started while ``factor == factor_before``.

        An operation longer than :data:`INTERVAL_S` is followed by a
        fresh probe and scaled by the mean of the factors before and
        after it, so a change of host speed during it is split between
        the two.
        """
        if raw_seconds < INTERVAL_S or not self.calibrate:
            return raw_seconds * factor_before
        self.recalibrate()
        return raw_seconds * (factor_before + self.factor) / 2

    def tick(self) -> None:
        """Recalibrate when :data:`INTERVAL_S` has passed since the last
        probe.  Call it only between timed operations."""
        if self._raw() - self._mark >= INTERVAL_S:
            self.recalibrate()
