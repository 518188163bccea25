"""Timings corrected for the speed the shared host gives this process.

On a small shared VM the same deterministic simulation runs at speeds
that differ by up to 2x, in phases of a few seconds to minutes (on a
2-vCPU Intel Xeon VM, one ``honest-long`` run took 1.6 s to 3.5 s within
two minutes). Medians and longer runs do not remove phases that last
longer than a run, so the end-to-end timings are corrected for them.

While a ``HostClock`` is active, a ``SIGPROF`` interval timer interrupts
the benchmark after every ``SLICE_EVERY_S`` of process CPU time and runs
one fixed reference slice: a small discrete-event loop in pure Python
(heap, frozen dataclasses, dict lookups, method calls), the same mix of
interpreter work the simulator does. The slice is timed, and its time is
left out of every timed region. Each stretch of benchmark work between
two slices is scaled by ``NOMINAL_SLICE_S`` over the local slice time
(the median of the slices on either side of it). Timings are thus host
seconds at a fixed nominal speed: one at which a slice takes
``NOMINAL_SLICE_S``. A change to the simulator moves them as it moves
raw host seconds; a slower or faster phase of the host moves the slices
too, and cancels out. On that VM the correction cut the spread of single
``honest-long`` runs (interquartile range over median) from 0.37 to 0.06.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from bisect import bisect_left
from dataclasses import dataclass

SLICE_EVERY_S = 0.05
# About the middle of the slice times seen on the VM above (0.3-0.65 ms).
NOMINAL_SLICE_S = 0.0005


@dataclass(frozen=True)
class _Event:
    at_ms: int
    kind: int
    node: int
    payload: tuple


class _Node:
    def __init__(self) -> None:
        self.seen: dict[tuple, _Event] = {}
        self.head_ms = 0

    def receive(self, event: _Event) -> int:
        if event.payload in self.seen:
            return 0
        self.seen[event.payload] = event
        self.head_ms = max(self.head_ms, event.at_ms)
        return 1


_EVENTS = [(i * 7 % 50, i, _Event(i, i % 3, i % 5, (i % 40,))) for i in range(150)]


def reference_slice() -> int:
    """A fixed amount of simulator-like interpreter work."""
    queue: list = []
    nodes = [_Node() for _ in range(5)]
    for entry in _EVENTS:
        heapq.heappush(queue, entry)
    accepted = 0
    while queue:
        _, _, event = heapq.heappop(queue)
        accepted += nodes[event.node].receive(event)
        accepted += event == _Event(event.at_ms, event.kind, event.node, event.payload)
    return accepted


class CpuClock:
    """Plain CPU seconds of this process, for runs whose timings are not gated."""

    now = staticmethod(time.process_time)

    @staticmethod
    def seconds(start: float, end: float) -> float:
        return end - start


class HostClock:
    """Wall-clock regions, less reference slices, scaled to nominal speed."""

    now = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self._entries: list[float] = []
        self._exits: list[float] = []
        self._slices: list[float] = []

    def _slice(self, signum=None, frame=None) -> None:
        # The slice's own garbage must not trigger a collection that the
        # simulator's objects would pay for inside an excluded slice.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_slice()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self._entries.append(start)
        self._exits.append(end)
        self._slices.append(end - start)

    def __enter__(self) -> HostClock:
        self._previous = signal.signal(signal.SIGPROF, self._slice)
        self._slice()
        signal.setitimer(signal.ITIMER_PROF, SLICE_EVERY_S, SLICE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _local_slice(self, i: int) -> float:
        """Median slice time around the gap that ends at slice ``i``."""
        return statistics.median(self._slices[max(0, i - 1) : i + 2])

    def seconds(self, start: float, end: float) -> float:
        """Nominal seconds of benchmark work between two ``now()`` readings.

        A slice runs between bytecodes, never inside a ``now()`` call, so
        each slice lies wholly inside or outside the region.
        """
        first = bisect_left(self._entries, start)
        last = bisect_left(self._entries, end)
        total = 0.0
        cursor = start
        for i in range(first, last):
            total += (self._entries[i] - cursor) / self._local_slice(i)
            cursor = self._exits[i]
        total += (end - cursor) / self._local_slice(last)
        return total * NOMINAL_SLICE_S

    @property
    def slice_s(self) -> float:
        """Median reference slice time so far, in host seconds."""
        return statistics.median(self._slices)
