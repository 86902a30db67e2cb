"""Host speed sampled during a timed pass, to express its time host-free.

On a shared host the same pass takes anywhere from 0.7 to 1.3 s, because
other tenants contend for the cores and caches, and the contention
changes within seconds.  So while a pass runs, a timer interrupts it
every ``INTERVAL_S`` and runs a fixed slice of pure-Python work (a heap
and a dict, no call into the program), timing each run of it.  The
slices track the host's speed at the moments the pass runs: on a 2-vCPU
shared host the pass's time and the mean slice time correlate at 0.89,
where a reference timed between passes correlates at 0.5 to 0.7.

A *reference second* is the time of ``SLICES_PER_REF_S`` slices at the
host's speed during the pass.  A rate per reference second changes when
the program's speed changes, and not when the host's does.  Slice time
is taken out of the pass's wall time; slices take about 3% of it.  Do not
change the slice: that rescales every ``*_per_ref_s`` figure.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from typing import List

#: Seconds between two slices.
INTERVAL_S = 0.05
#: A reference second is the time of this many slices.
SLICES_PER_REF_S = 500


def reference_slice() -> int:
    """Fixed work of about 2 ms: 1500 heap pushes and dict updates."""
    heap: list = []
    counts: dict = {}
    for i in range(1500):
        heapq.heappush(heap, ((i * 7919) % 1013, i))
        counts[i % 61] = counts.get(i % 61, 0) + i
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(heap) + len(counts)


class Sampler:
    """Times a reference slice every ``INTERVAL_S`` while it is active.

    ``with Sampler() as sampler:`` around the timed pass; afterwards
    ``sampler.slices`` holds the time of each slice, including one run
    right before and one right after the pass.
    """

    def __init__(self) -> None:
        self.slices: List[float] = []
        self._previous = None

    def _slice(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_slice()
        self.slices.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()

    def __enter__(self) -> "Sampler":
        self._slice()
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._slice()

    def in_pass_s(self) -> float:
        """Time the slices took inside the pass (not the two outside)."""
        return sum(self.slices[1:-1])


def per_ref_second(per_s: float, slice_s: float) -> float:
    """A rate per host second as a rate per reference second, with the
    host taking ``slice_s`` seconds per slice."""
    return per_s * slice_s * SLICES_PER_REF_S
