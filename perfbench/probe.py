"""Host-speed probe: wall time normalised by a fixed loop timed during the run.

On a shared host the CPU's speed drifts by up to 2x, within seconds and over
minutes: on a 2-vCPU VM, one ``System.run()`` read from 2.3 to 4.2 s within
five minutes.  While a unit runs, or a fresh interpreter imports ``repro``
and builds the units, ``SpeedProbe`` interrupts it every ``PERIOD_S`` of
process CPU time (``SIGPROF``) and times ``probe_loop``, a fixed mix of
interpreter and small numpy work like the simulator's.  Each interval
between two probes is divided by the probe's own time at its end, which
gives the interval's length in probe loops whatever the host's speed was in
it.  Their sum, scaled by ``NOMINAL_PROBE_S``, is the span's duration in
seconds on a host where one probe loop takes ``NOMINAL_PROBE_S``.

The probe only reads the clock and runs its own loop; it touches no
simulator state.  ``probe_loop`` and the constants must not change between
commits that are compared, or every normalised time changes with them.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List, Tuple

import numpy as np

#: Process CPU seconds between two probes.
PERIOD_S = 0.025
#: Seconds one probe loop is taken to last: scales probe loops to seconds.
NOMINAL_PROBE_S = 0.0004

_ARRAY = np.arange(256, dtype=float)


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, value: int) -> None:
        self.key = value * 2
        self.value = value

    def plus(self, x: int) -> int:
        return self.value + x


def probe_loop() -> float:
    """A fixed mix of the simulator's kinds of work, about 0.3 ms in all.

    Dict and float arithmetic, object creation, method calls and a heap, and
    small numpy calls whose cost is mostly call overhead: on the host this
    was written on, each part alone tracked the host's speed on one workload
    and missed it on another, and the three together tracked it on all.
    """
    table: dict = {}
    acc = 0.0
    for i in range(600):
        key = i & 31
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += table[key]
    heap: list = []
    for node in [_Node(i) for i in range(120)]:
        heapq.heappush(heap, (node.key, node.value))
        acc += node.plus(1)
    while heap:
        acc += heapq.heappop(heap)[1]
    arr = _ARRAY
    for _ in range(12):
        arr = np.minimum(arr + 1.0, 500.0)
        acc += float(arr.max())
    return acc


class SpeedProbe:
    """Context manager that times ``probe_loop`` every ``PERIOD_S`` of CPU."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.start = 0.0
        #: (start, duration) of every probe taken.
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _on_prof(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGPROF, self._on_prof)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._on_prof(signal.SIGPROF, None)  # scales the span after the last tick

    def normalized_seconds(self) -> float:
        """Seconds the probed span would take where a probe lasts NOMINAL_PROBE_S."""
        return normalized_seconds(self.start, self.samples)


def normalized_seconds(start: float, samples: List[Tuple[float, float]]) -> float:
    """Sum over probes of (time since the previous probe ended) / probe time."""
    total = 0.0
    previous_end = start
    for t0, duration in samples:
        total += (t0 - previous_end) / duration
        previous_end = t0 + duration
    return total * NOMINAL_PROBE_S
