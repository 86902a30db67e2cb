import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.trace import AccessTrace
from repro.sim.rng import SeededRNG


def test_generate_respects_fractions():
    rng = SeededRNG(1)
    trace = AccessTrace.generate(rng, total_pages=1000, touch_fraction=0.5,
                                 write_fraction=0.2)
    assert trace.distinct_reads == 500
    assert trace.distinct_writes == 100


def test_generate_deterministic_per_seed():
    a = AccessTrace.generate(SeededRNG(5), 1000, 0.5, 0.3)
    b = AccessTrace.generate(SeededRNG(5), 1000, 0.5, 0.3)
    assert np.array_equal(a.read_pages, b.read_pages)
    assert np.array_equal(a.write_pages, b.write_pages)


def test_writes_are_subset_of_reads():
    trace = AccessTrace.generate(SeededRNG(2), 1000, 0.4, 0.5)
    assert np.isin(trace.write_pages, trace.read_pages).all()


def test_read_only_ratio_matches_write_fraction():
    trace = AccessTrace.generate(SeededRNG(3), 10_000, 0.5, 0.25)
    assert trace.read_only_ratio == pytest.approx(0.75, abs=0.01)


def test_pages_within_bounds_and_distinct():
    trace = AccessTrace.generate(SeededRNG(4), 500, 1.0, 1.0)
    assert trace.read_pages.min() >= 0
    assert trace.read_pages.max() < 500
    assert len(np.unique(trace.read_pages)) == len(trace.read_pages)


def test_invalid_fractions_raise():
    rng = SeededRNG(0)
    with pytest.raises(ValueError):
        AccessTrace.generate(rng, 100, 1.5, 0.5)
    with pytest.raises(ValueError):
        AccessTrace.generate(rng, 100, 0.5, -0.1)


def test_read_loads_scale_with_touched():
    trace = AccessTrace.generate(SeededRNG(6), 1000, 0.5, 0.1,
                                 loads_per_read_page=10)
    assert trace.read_loads == 5000


def test_subset_shrinks_trace():
    rng = SeededRNG(7)
    trace = AccessTrace.generate(rng, 1000, 0.8, 0.2)
    sub = trace.subset(0.5, rng.fork("ws"))
    assert sub.distinct_reads == trace.distinct_reads // 2
    assert np.isin(sub.read_pages, trace.read_pages).all()
    assert np.isin(sub.write_pages, trace.write_pages).all()


def test_subset_zero_and_full():
    rng = SeededRNG(8)
    trace = AccessTrace.generate(rng, 100, 0.5, 0.5)
    empty = trace.subset(0.0, rng.fork("a"))
    assert empty.distinct_reads == 0
    full = trace.subset(1.0, rng.fork("b"))
    assert full.distinct_reads == trace.distinct_reads


def test_subset_invalid_fraction():
    rng = SeededRNG(9)
    trace = AccessTrace.generate(rng, 100, 0.5, 0.5)
    with pytest.raises(ValueError):
        trace.subset(2.0, rng)


def test_touched_pages_counts_union():
    trace = AccessTrace(read_pages=np.array([1, 2, 3]),
                        write_pages=np.array([3, 4]), read_loads=0)
    assert trace.touched_pages == 4


def test_jitter_without_swap_keeps_writable_start():
    trace = AccessTrace.generate(SeededRNG(10), total_pages=5,
                                 touch_fraction=1.0, write_fraction=0.4,
                                 writable_start=2)
    jit = trace.jittered(SeededRNG(11), total_pages=5, fraction=0.05)
    assert jit.writable_start == 2
    assert np.array_equal(jit.read_pages, trace.read_pages)
    assert np.array_equal(jit.write_pages, trace.write_pages)


def reference_jittered(trace, rng, total_pages, fraction):
    """``AccessTrace.jittered`` as numpy set routines (the oracle).

    This was the implementation before the page-mask rewrite, except that
    the ``n_swap == 0`` copy keeps ``writable_start``.
    """
    n_swap = int(round(len(trace.read_pages) * fraction))
    if n_swap == 0:
        return AccessTrace(trace.read_pages.copy(), trace.write_pages.copy(),
                           trace.read_loads, trace.writable_start)
    keep_idx = rng.sample_pages(len(trace.read_pages),
                                len(trace.read_pages) - n_swap)
    kept = trace.read_pages[np.sort(keep_idx)]
    fresh = rng.sample_pages(total_pages, n_swap)
    reads = np.unique(np.concatenate([kept, fresh]))
    writes = np.intersect1d(trace.write_pages, reads, assume_unique=False)
    deficit = len(trace.write_pages) - len(writes)
    if deficit > 0:
        candidates = np.setdiff1d(reads, writes, assume_unique=True)
        candidates = candidates[candidates >= trace.writable_start]
        if len(candidates):
            extra = candidates[rng.sample_pages(
                len(candidates), min(deficit, len(candidates)))]
            writes = np.unique(np.concatenate([writes, extra]))
    return AccessTrace(read_pages=reads, write_pages=np.sort(writes),
                       read_loads=trace.read_loads,
                       writable_start=trace.writable_start)


def _pages(max_page):
    """Page lists as callers may pass them: unsorted, with duplicates."""
    return st.lists(st.integers(0, max_page), max_size=120).map(
        lambda pages: np.array(pages, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31), total=st.integers(1, 300),
       reads=_pages(350), writes=_pages(350),
       writable=st.sampled_from(["zero", "mid", "total", "beyond"]),
       fraction=st.one_of(st.sampled_from([0.0, 1.0, 0.05, 0.08]),
                          st.floats(0.0, 1.0)))
@example(seed=1, total=200, reads=np.arange(150, -1, -3, dtype=np.int64),
         writes=np.array([3, 3, 150, 9, 9], dtype=np.int64),
         writable="zero", fraction=1.0)
@example(seed=2, total=50, reads=np.array([7, 7, 7, 2], dtype=np.int64),
         writes=np.array([7, 2, 2], dtype=np.int64),
         writable="beyond", fraction=0.0)
def test_jittered_matches_set_routine_reference(seed, total, reads, writes,
                                                writable, fraction):
    writable_start = {"zero": 0, "mid": total // 3, "total": total,
                      "beyond": total + 40}[writable]
    trace = AccessTrace(reads, writes, read_loads=17,
                        writable_start=writable_start)
    want_rng, got_rng = SeededRNG(seed), SeededRNG(seed)
    want = reference_jittered(trace, want_rng, total, fraction)
    got = trace.jittered(got_rng, total, fraction)
    assert np.array_equal(got.read_pages, want.read_pages)
    assert got.read_pages.dtype == want.read_pages.dtype
    assert np.array_equal(got.write_pages, want.write_pages)
    assert got.write_pages.dtype == want.write_pages.dtype
    assert got.read_loads == want.read_loads
    assert got.writable_start == want.writable_start
    # Same draws, same order: the generators end in the same state.
    assert got_rng._gen.bit_generator.state \
        == want_rng._gen.bit_generator.state
