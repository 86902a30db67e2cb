"""Statistical page-access traces.

The paper characterises each function by how much of its snapshot memory
an invocation reads vs writes (Figure 10: 24%–90% of touched pages are
read-only).  We model one invocation as:

* a set of distinct pages *read*,
* a subset of distinct pages *written* (always also counted as touched),
* a count of cache-missing loads issued against read pages (prices CXL's
  per-load latency, §5.1/§9.5).

Traces are drawn from a :class:`repro.sim.rng.SeededRNG`, so an identical
(workload seed, function, invocation index) always touches the same pages
— the determinism the paper engineers via trace replay (§9.6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.rng import SeededRNG


@dataclass
class AccessTrace:
    """Pages one invocation touches, as flat address-space indices."""

    read_pages: np.ndarray
    write_pages: np.ndarray
    read_loads: int
    writable_start: int = 0

    @property
    def touched_pages(self) -> int:
        return int(np.count_nonzero(_page_mask(
            _page_span(self.read_pages, self.write_pages),
            self.read_pages, self.write_pages)))

    @property
    def distinct_reads(self) -> int:
        return len(self.read_pages)

    @property
    def distinct_writes(self) -> int:
        return len(self.write_pages)

    @property
    def read_only_ratio(self) -> float:
        """Fraction of touched pages that are never written (Figure 10)."""
        size = _page_span(self.read_pages, self.write_pages)
        reads = _page_mask(size, self.read_pages)
        writes = _page_mask(size, self.write_pages)
        touched = np.count_nonzero(reads | writes)
        if touched == 0:
            return 0.0
        return int(np.count_nonzero(reads & ~writes)) / int(touched)

    @staticmethod
    def generate(rng: SeededRNG, total_pages: int, touch_fraction: float,
                 write_fraction: float, loads_per_read_page: float = 20.0,
                 writable_start: int = 0) -> "AccessTrace":
        """Draw a trace.

        ``touch_fraction`` — share of the image touched at least once.
        ``write_fraction`` — share of *touched* pages that are written
        (1 - read_only_ratio in the paper's terms).
        ``writable_start`` — first writable flat page index (pages below
        it are the read-only runtime/library prefix and are never
        written).
        """
        if not 0.0 <= touch_fraction <= 1.0:
            raise ValueError(f"touch_fraction out of range: {touch_fraction}")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError(f"write_fraction out of range: {write_fraction}")
        n_touched = int(round(total_pages * touch_fraction))
        touched = rng.sample_pages(total_pages, n_touched)
        n_written = int(round(len(touched) * write_fraction))
        writable = touched[touched >= writable_start]
        written = writable[:min(n_written, len(writable))].copy()
        touched.sort()
        written.sort()
        loads = int(round(len(touched) * loads_per_read_page))
        return AccessTrace(read_pages=touched, write_pages=written,
                           read_loads=loads, writable_start=writable_start)

    def jittered(self, rng: SeededRNG, total_pages: int,
                 fraction: float = 0.08) -> "AccessTrace":
        """A per-invocation variant of this trace.

        Real invocations of the same function touch *mostly* the same
        pages (which is why REAP's recorded working set achieves ~90%+
        coverage); ``fraction`` of the reads are swapped for fresh pages
        to model input-dependent variation.

        The set algebra runs as boolean page masks over the image (grown
        to cover the largest input page), so the result comes out sorted
        and distinct without a hash or sort pass over the pages.  The
        draws are fixed: the kept indices, the fresh pages, then the
        write top-up.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")
        n_reads = len(self.read_pages)
        n_swap = int(round(n_reads * fraction))
        if n_swap == 0:
            return AccessTrace(self.read_pages.copy(),
                               self.write_pages.copy(), self.read_loads,
                               self.writable_start)
        keep_idx = rng.sample_pages(n_reads, n_reads - n_swap)
        fresh = rng.sample_pages(total_pages, n_swap)
        size = max(total_pages,
                   _page_span(self.read_pages, self.write_pages))
        read_mask = _page_mask(size, self.read_pages[keep_idx], fresh)
        # Writes: keep those still read, top up from the new reads to
        # preserve the write fraction (never below writable_start).
        write_mask = _page_mask(size, self.write_pages)
        write_mask &= read_mask
        deficit = len(self.write_pages) - int(np.count_nonzero(write_mask))
        if deficit > 0:
            spare = read_mask & ~write_mask
            spare[:self.writable_start] = False
            candidates = np.flatnonzero(spare)
            if len(candidates):
                write_mask[candidates[rng.sample_pages(
                    len(candidates), min(deficit, len(candidates)))]] = True
        return AccessTrace(read_pages=np.flatnonzero(read_mask),
                           write_pages=np.flatnonzero(write_mask),
                           read_loads=self.read_loads,
                           writable_start=self.writable_start)

    def subset(self, fraction: float, rng: SeededRNG) -> "AccessTrace":
        """A partial trace (e.g. the recorded working set REAP prefetches)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")
        n_reads = int(round(len(self.read_pages) * fraction))
        n_writes = int(round(len(self.write_pages) * fraction))
        reads = self.read_pages[rng.sample_pages(len(self.read_pages), n_reads)] \
            if n_reads else np.empty(0, dtype=np.int64)
        writes = self.write_pages[rng.sample_pages(len(self.write_pages), n_writes)] \
            if n_writes else np.empty(0, dtype=np.int64)
        reads.sort()
        writes.sort()
        return AccessTrace(read_pages=reads, write_pages=writes,
                           read_loads=int(self.read_loads * fraction),
                           writable_start=self.writable_start)


def _page_span(*page_sets: np.ndarray) -> int:
    """One past the largest page in ``page_sets`` (0 when all are empty)."""
    return max((int(pages.max()) + 1 for pages in page_sets if len(pages)),
               default=0)


def _page_mask(size: int, *page_sets: np.ndarray) -> np.ndarray:
    """A ``bool`` mask of ``size`` pages with every page in ``page_sets`` set.

    Counting or listing (``np.flatnonzero``) the mask replaces numpy's
    set routines, whose ``np.unique`` goes through a hash table on numpy 2
    and costs about a millisecond per 10k-page call.
    """
    mask = np.zeros(size, dtype=bool)
    for pages in page_sets:
        mask[pages] = True
    return mask
