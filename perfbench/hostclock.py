"""A clock that runs at a fixed reference speed of the host's CPU.

The hosts this benchmark runs on share their cores: the same pure-Python loop
takes from 36 to 59 ms depending on the second it runs in, in phases that
last several seconds, and the process's own CPU time slows down just as much
(it is not time stolen while descheduled).  Plain wall-clock rates then
spread by tens of percent between identical runs.

:class:`HostClock` measures the host's speed while the benchmark runs.  Every
``INTERVAL_S`` a timer signal runs a fixed calibration slice (no repo code)
in the main thread and times it in thread CPU time, which excludes waiting
for a core.  The clock advances at ``REFERENCE_SLICE_S / slice time``: one
clock second is the work a host at the reference speed does in one second.
A slower program still reads slower, because its work grows against the
same calibration; the host's speed phases cancel out.
"""

from __future__ import annotations

import signal
import time
from collections import deque

#: Thread CPU seconds one calibration slice takes on an uncontended core of
#: the host the reference numbers came from; only ratios to it matter.
REFERENCE_SLICE_S = 0.00035
INTERVAL_S = 0.02
#: Slices averaged into the current speed estimate.
WINDOW = 5


def calibration_slice() -> int:
    """A fixed pure-Python workload: dict stores and loads, integer adds."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(2000):
        table[i & 255] = i
        acc += table.get((i * 7) & 255, 0)
    return acc


class HostClock:
    """Reference-speed seconds; :meth:`start` before timing, :meth:`stop` after."""

    def __init__(self) -> None:
        self._seconds = 0.0  # reference seconds up to _mark
        self._mark = time.perf_counter()
        self._speed = 1.0
        self._recent: deque[float] = deque(maxlen=WINDOW)
        self.slices = 0

    def start(self) -> "HostClock":
        self._mark = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        begin = time.perf_counter()
        self._seconds += (begin - self._mark) * self._speed
        cpu = time.thread_time()
        calibration_slice()
        self._recent.append(time.thread_time() - cpu)
        self._speed = REFERENCE_SLICE_S * len(self._recent) / sum(self._recent)
        self.slices += 1
        # The slice itself is not the benchmark's work: the clock resumes
        # after it.
        self._mark = time.perf_counter()

    def now(self) -> float:
        """Reference seconds since :meth:`start`."""
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self._seconds + (time.perf_counter() - self._mark) * self._speed
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
