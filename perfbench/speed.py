"""The machine's speed, measured next to each operation, to scale its time.

The speed of this benchmark's 2-CPU VM wanders with its neighbours' load.
A fixed pure-Python loop timed for 20 s read 0.66 to 1.08 of its median
across 1-s windows, in wall time and in CPU time alike, so the swings are
in the CPU's speed and no clock takes them out.  So a probe, a fixed loop of
the kind of work the library does (small-int arithmetic, list and dict
indexing, calls), is timed next to the operations, and each operation's
time is scaled by ``NOMINAL_S / probe time``: it reads as the time the
operation would take with the machine at the speed where one probe takes
``NOMINAL_S``.  In the same 20 s, a library call scaled by probes timed
next to it read 0.97 to 1.01 of its median across 1-s windows.

Inside a worker, a ``Meter`` probes on a CPU-time interval timer
(``SIGPROF``), so a probe also lands inside a long operation.  The time
spent probing is taken out of every latency.
"""

from __future__ import annotations

import signal
import statistics
import time

NOMINAL_S = 0.0003  # one probe on the reference machine at its fast speed
INTERVAL_S = 0.02  # CPU time between probes in a worker
WINDOW = 3  # a short operation is scaled by the median of this many probes before it
_TABLE = list(range(256))
_SLOTS = dict.fromkeys(range(64), 0)


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFF


def probe() -> float:
    """Time one fixed loop; it allocates nothing that outlives a step."""
    table, slots, mix = _TABLE, _SLOTS, _mix
    acc = 0
    start = time.perf_counter()
    for i in range(1600):
        acc = mix(acc, table[i & 255])
        slots[i & 63] = table[acc] ^ slots[(i + 1) & 63]
    return time.perf_counter() - start


def scale_of(probes) -> float:
    """Median, so that a probe an interrupt lands in does not move the scale."""
    return NOMINAL_S / statistics.median(probes)


class Meter:
    """Probes taken in one worker, and the time they took.

    ``start`` probes ``WINDOW`` times and arms ``SIGPROF``; the handler
    probes again every ``INTERVAL_S`` of CPU time, wherever the worker is.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.spent = 0.0  # wall time inside probes and their handler

    def _take(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        for _ in range(WINDOW):
            self._take()
        signal.signal(signal.SIGPROF, self._take)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def mark(self) -> tuple[int, float]:
        return len(self.probes), self.spent

    def since(self, mark: tuple[int, float]) -> tuple[float, float]:
        """Scale for an operation that began at ``mark``, and the probe time since.

        The scale takes the median of the ``WINDOW`` probes before the
        operation and every probe taken during it.
        """
        count, spent = mark
        return scale_of(self.probes[max(0, count - WINDOW):]), self.spent - spent
