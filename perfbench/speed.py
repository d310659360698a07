"""Sampling of the core's speed while an operation runs.

On a shared host the core an operation runs on is slowed by other tenants
for milliseconds to minutes at a time; a fixed piece of pure-Python work
then takes up to twice as long, in CPU time as much as in wall time.  The
wall time of a long operation is its work at full speed stretched by the
share of time the core was slowed, so without correction the spread
between runs follows the host, not the program.

SpeedProbe runs a fixed calibration chunk, a 3x3 product of standard-
library Fraction matrices much like heiscert's own matrix products, from a
timer signal every `interval` seconds while the operation runs, and keeps
each chunk's start and end.  normalise() then counts the operation's time
in chunks: each stretch of the operation between two samples, divided by
the chunk's duration at that moment.  The probe's own time is left out.
A count of chunks times REFERENCE_CHUNK_S is the operation's time at the
reference speed.  The chunk uses nothing of heiscert, so a change to the
program cannot change the yardstick.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# chunk() at full speed inside a running operation: the 1st percentile of
# its sampled durations on a 2.0 GHz Xeon vCPU with CPython 3.11.7.
REFERENCE_CHUNK_S = 125e-6

_MATRIX = [[Fraction(3 ** 40 + 7 * i + j, 2 ** 61 + 5 * i + 3 * j)
            for j in range(3)] for i in range(3)]


def chunk() -> list:
    """A fixed piece of exact rational work: _MATRIX squared."""
    cols = list(zip(*_MATRIX))
    out = []
    for row in _MATRIX:
        out_row = []
        for col in cols:
            acc = row[0] * col[0]
            for k in (1, 2):
                acc = acc + row[k] * col[k]
            out_row.append(acc)
        out.append(out_row)
    return out


class SpeedProbe:
    """Keeps (start, end) of chunk() run from SIGALRM every `interval` s,
    and once on entry and on exit.  With `active` false it does nothing."""

    def __init__(self, interval: float, active: bool = True):
        self.interval = interval
        self.active = active
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        chunk()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self) -> "SpeedProbe":
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            self._tick()
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._tick()

    def normalise(self) -> tuple[float, float]:
        """(seconds, chunks) of the operation between the first and the
        last sample, without the probe's own time.  The stretch between
        two samples ran at the mean speed the two measured."""
        seconds = chunks = 0.0
        for (s0, e0), (s1, e1) in zip(self.samples, self.samples[1:]):
            gap = s1 - e0
            seconds += gap
            chunks += gap * 0.5 * (1 / (e0 - s0) + 1 / (e1 - s1))
        return seconds, chunks
