"""Host-speed reference: reports measured time at one fixed host speed.

The hosts this benchmark runs on share their cores: a single-threaded
Python loop there switches between full and about half speed, for
seconds or minutes at a time, and CPU time drifts the same way as wall
time.  So a short, fixed pure-Python loop, which shares no code with the
program, is timed every ``INTERVAL`` seconds from a timer signal while
operations run.  An operation's time, less the time spent in those
samples, is scaled by the mean of ``REFERENCE_S / loop time`` over the
samples taken during it: it is reported as the time it would take on a
host where the loop takes ``REFERENCE_S``.  A change to the program
cannot move the loop, so every gain or loss of the program shows in
full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

REFERENCE_S = 1.5e-3   # nominal time of one ``reference_loop``
INTERVAL = 0.05        # seconds between samples

_MASK = (1 << 256) - 1


class _Cell:
    __slots__ = ("rows", "latch")


def reference_loop(steps: int = 10_000) -> float:
    """Time a fixed loop of 256-bit row operations; returns seconds."""
    cell = _Cell()
    cell.rows = [(i * 0x9E3779B97F4A7C15) & _MASK for i in range(128)]
    cell.latch = 0
    start = perf_counter()
    for i in range(steps):
        step = i % 5
        if step == 0:
            cell.latch = cell.rows[i & 127] ^ cell.rows[(7 * i) & 127]
        elif step == 1:
            cell.rows[(3 * i) & 127] = cell.latch
        elif step == 2:
            cell.latch = (cell.latch << 3) & _MASK
        elif step == 3:
            cell.latch = (cell.latch >> 5) | cell.rows[i & 127]
        else:
            cell.latch = ~cell.latch & _MASK
    return perf_counter() - start


def factor(loop_times: list[float]) -> float:
    """Scale factor from measured time to time at the reference speed."""
    return statistics.fmean(REFERENCE_S / t for t in loop_times)


class Sampler:
    """Times ``reference_loop`` every ``INTERVAL`` seconds while active."""

    def __init__(self):
        self.times: list[float] = []     # when each sample started
        self.loops: list[float] = []     # the loop's time in each sample
        self.spent = 0.0                 # total time spent sampling
        self._old_handler = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.loops.append(reference_loop())
        self.times.append(start)
        self.spent += perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._tick(None, None)
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._tick(None, None)

    def factor(self, start: float, end: float) -> float:
        """Scale factor for an operation that ran from ``start`` to ``end``:
        over the samples taken in that span, or the nearest one on each
        side when it was too short to hold one."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if lo == hi:
            lo, hi = max(lo - 1, 0), hi + 1
        return factor(self.loops[lo:hi])
