"""Host-speed calibration for the host-time metrics.

On a shared host the simulator's CPU cost per op drifts by tens of percent
within minutes, with nothing in the program changing.  So the timed phase is
interleaved with a fixed pure-Python calibration task: object allocation,
dict and heap traffic, bytes and hashing (the simulator's mix), then random
reads over a 16 MB array (the simulator's working set is tens of MB, and
much of the drift is contention for caches and memory, which a small task
does not feel).  A ``Meter`` runs one short slice of it every
``EVERY_EVENTS`` scheduler events, between events, from the scheduler's
``stop_when`` hook, which never touches the simulation.  The slices' CPU is
taken out of the phase's CPU, and ``cpu_us_per_op`` and ``setup_s`` (process
CPU of the set-up just before) are reported at the reference host speed:
times ``NOMINAL_SLICE_CPU_S / median slice CPU``.  The slices sample exactly
the windows the program runs in, so a slower host moves both and a change to
the program moves only the program's share.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import heapq
import random
import statistics
import time
from array import array
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: CPU time of one slice on the reference host, the 2-core container the
#: benchmark was defined on.
NOMINAL_SLICE_CPU_S = 0.0012
SLICE_ITEMS = 240
#: The array the slices read at random, and the reads per slice.
ARRAY_ITEMS = 2_000_000
SLICE_READS = 2000
#: Scheduler events between two slices (about 1% of a phase's CPU).
EVERY_EVENTS = 2000


@dataclass(slots=True)
class _Item:
    key: int
    name: str
    pair: Tuple[int, int]


def _work(items: int) -> int:
    heap: List[Tuple[int, int, _Item]] = []
    table: Dict[str, _Item] = {}
    hasher = hashlib.sha256()
    total = 0
    for i in range(items):
        item = _Item(i, f"n{i}", (i, i + 1))
        table[item.name] = item
        heapq.heappush(heap, ((i * 7919) % 1009, i, item))
        hasher.update(b"%d:%d" % item.pair)
    while heap:
        _rank, _i, item = heapq.heappop(heap)
        total += len(table.pop(item.name).name)
    return total + hasher.digest()[0]


@functools.lru_cache(maxsize=1)
def _memory() -> Tuple[array, array]:
    """The read-only array and a fixed sequence of random indexes into it,
    built once per process."""
    rng = random.Random("calibration")
    return (array("q", range(ARRAY_ITEMS)),
            array("q", (rng.randrange(ARRAY_ITEMS) for _ in range(100 * SLICE_READS))))


def _reads(start: int) -> int:
    values, indexes = _memory()
    total = 0
    for index in indexes[start:start + SLICE_READS]:
        total += values[index]
    return total


class Meter:
    """Runs a calibration slice every ``EVERY_EVENTS`` calls and keeps each
    slice's process CPU.  The collector is paused inside a slice, so a
    collection of the simulator's heap never lands in a sample."""

    def __init__(self) -> None:
        self.calls = 0
        self.slice_cpu: List[float] = []
        _memory()

    def __call__(self) -> None:
        self.calls += 1
        if self.calls % EVERY_EVENTS:
            return
        start = (len(self.slice_cpu) % 100) * SLICE_READS
        gc.disable()
        try:
            started = time.process_time()
            _work(SLICE_ITEMS)
            _reads(start)
            self.slice_cpu.append(time.process_time() - started)
        finally:
            gc.enable()

    @property
    def cpu_s(self) -> float:
        return sum(self.slice_cpu)

    def factor(self) -> float:
        """Reference-host CPU per unit of this host's CPU in the window."""
        if not self.slice_cpu:
            return 1.0
        return NOMINAL_SLICE_CPU_S / statistics.median(self.slice_cpu)
