"""The reference loop that host times are normalised by.

The benchmark host is shared: its speed drifts by tens of per cent over
seconds to minutes while the simulator's work stays the same. Timing
this fixed, stdlib-only loop right before and after every job measures
how fast the host runs Python at that moment, and ``run.py`` scales each
job's wall time by :data:`NOMINAL_S` over that speed. The loop does the
simulator's kind of work (an event heap driving generator coroutines
that touch dicts, allocate small objects and slice bytes) and never
changes with the program under test.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

#: Seconds the loop takes on the reference host: a 2-vCPU Intel Xeon
#: virtual machine running CPython 3.11, quiet. A job timed at wall ``w``
#: next to a loop timed at ``r`` reports ``w * NOMINAL_S / r`` (``ref_s``).
NOMINAL_S = 0.15

PROCESSES = 4500
STEPS = 15


class _Event:
    __slots__ = ("time", "key", "payload")

    def __init__(self, time: float, key: int, payload: bytes):
        self.time = time
        self.key = key
        self.payload = payload


def _process(i: int, store: dict, out: list):
    for k in range(STEPS):
        key = (i * 31 + k) % 977
        store[key] = store.get(key, 0) + k
        event = _Event(k * 1e-6, key, bytes(16))
        out.append(event.payload[:8])
        yield event.time


def _loop() -> int:
    store: dict = {}
    out: list = []
    procs = [_process(i, store, out) for i in range(PROCESSES)]
    heap = [(0.0, i) for i in range(PROCESSES)]
    heapq.heapify(heap)
    while heap:
        now, i = heapq.heappop(heap)
        try:
            delay = next(procs[i])
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, i))
    return len(store) + len(out)


def calibrate() -> float:
    """Wall seconds of one run of the reference loop."""
    gc.collect()
    t0 = perf_counter()
    _loop()
    return perf_counter() - t0
