"""A clock that counts time in units of a fixed reference loop.

On a shared 2-core host like the one this benchmark was written on, the CPU
changes speed by up to about 1.8x in phases lasting from seconds to minutes,
as other tenants load the host.  Both wall time and process CPU time follow
those phases, so a wall-clock figure from a run of a few tens of seconds can
differ by 25-35% between runs of the same code.  The phases slow the
reference loop below and replab's own code by nearly the same factor, so a
duration measured in reference loops stays put.

RefClock times the loop every PERIOD_S seconds of wall time from a SIGALRM
handler and integrates elapsed wall time divided by the latest loop time.
Its now() is therefore in "ref" units: the number of reference loops that
would have run in the interval.  Durations in refs follow the work done,
not the speed of the host at the time.  The host's speed moves within a
second, so the loop is sampled often and the latest sample is used
unsmoothed.  Over ten seeds, density's median pass spread by 29% in wall
time and by 4% in refs.

The handler's time is left out of both clocks: now() does not count it, and
wall() is wall time minus the time spent in the handler.  One loop takes
0.55-1.1 ms and runs every 50 ms, so the handler takes about 2% of a run's
wall time (the run prints the measured share; 1.6-1.9% over five
repeat-walk runs).  Each interruption also evicts some of the measured
code's data from the CPU caches; that cost is not removed.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.05


def reference() -> int:
    """Fixed interpreter work in the mix of replab's hot loops: tuple keys,
    dict updates, int arithmetic and Fraction sums.  It never changes, so
    the unit it defines stays the same from commit to commit."""
    table: dict = {}
    acc = Fraction(0)
    for i in range(1500):
        key = (i % 7, i % 11)
        table[key] = table.get(key, 0) + i
        if i % 20 == 0:
            acc += Fraction(i % 9 + 1, i % 17 + 1)
    return len(table) + acc.denominator


def _sample() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class RefClock:
    """Elapsed time in reference loops.  Use as a context manager: the timer
    signal runs only inside the with block."""

    def __init__(self):
        self.loop_s = _sample()
        self.refs = 0.0
        self.since = time.perf_counter()
        self.samples = 0
        self.handler_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.refs += (start - self.since) / self.loop_s
        self.loop_s = _sample()
        self.since = time.perf_counter()
        self.handler_s += self.since - start
        self.samples += 1

    def now(self) -> float:
        while True:
            seen = self.samples
            value = self.refs + (time.perf_counter() - self.since) / self.loop_s
            if seen == self.samples:  # no sample landed while reading
                return value

    def wall(self) -> float:
        """perf_counter() seconds minus the time spent in the handler."""
        while True:
            seen = self.samples
            value = time.perf_counter() - self.handler_s
            if seen == self.samples:
                return value

    def __enter__(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.since = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
