"""Regression tests for the access-trace memos (found by `lint --deep`).

The original ``_BASE_TRACE_CACHE`` was a plain unbounded dict that grew
without limit across long parameter sweeps.  It now routes through
:func:`repro.workloads.cache.memoized`: bounded LRU, and certified
shard-safe because the value is a pure function of the key.  These
tests hold both memos to that claim: a memo hit must equal a trace
generated fresh from the same forked RNG.
"""

import numpy as np
import pytest

from repro import optflags
from repro.mem.layout import pages_for_bytes
from repro.mem.trace import AccessTrace
from repro.sim.rng import SeededRNG
from repro.workloads import functions as fmod
from repro.workloads.cache import MAX_ENTRIES
from repro.workloads.functions import FUNCTIONS, function_by_name


def setup_function(_):
    fmod._BASE_TRACE_CACHE.clear()
    fmod._INV_TRACE_CACHE.clear()


def traces_equal(a, b):
    return (np.array_equal(a.read_pages, b.read_pages)
            and np.array_equal(a.write_pages, b.write_pages)
            and a.read_loads == b.read_loads
            and a.writable_start == b.writable_start)


def fresh_base_trace(f, rng):
    """The base trace built from scratch, bypassing every memo."""
    return AccessTrace.generate(
        rng.fork(f"{f.name}/base"),
        total_pages=f.image_pages,
        touch_fraction=f.touch_fraction,
        write_fraction=f.write_fraction,
        loads_per_read_page=f.loads_per_read_page,
        writable_start=min(f.image_pages,
                           pages_for_bytes(f.runtime_shared_bytes)))


def test_base_trace_cache_respects_the_flag():
    """The memo is unconditional: the ``trace_cache`` switch is retired
    and no remaining optflag turns it off."""
    with pytest.raises(ValueError):
        with optflags.disabled("trace_cache"):
            pass
    f = function_by_name("DH")
    with optflags.optimizations_disabled():
        first = f.base_trace(SeededRNG(7))
        assert len(fmod._BASE_TRACE_CACHE) == 1
    assert f.base_trace(SeededRNG(7)) is first
    assert len(fmod._BASE_TRACE_CACHE) == 1


def test_base_trace_identical_with_and_without_cache():
    f = function_by_name("IR")
    cached_cold = f.base_trace(SeededRNG(11))
    assert len(fmod._BASE_TRACE_CACHE) == 1
    cached_warm = f.base_trace(SeededRNG(11))
    assert cached_warm is cached_cold  # memo hit
    assert len(fmod._BASE_TRACE_CACHE) == 1
    fresh = fresh_base_trace(f, SeededRNG(11))
    assert fresh is not cached_warm
    assert traces_equal(fresh, cached_warm)


def test_invocation_trace_memo_matches_fresh_jitter():
    f = function_by_name("DH")
    rng = SeededRNG(5)
    cached = f.make_trace(rng, invocation=3)
    assert f.make_trace(rng, invocation=3) is cached  # memo hit
    fresh = fresh_base_trace(f, rng).jittered(
        rng.fork(f"{f.name}/inv3"), f.image_pages, f.trace_jitter)
    assert traces_equal(fresh, cached)


def test_base_trace_cache_is_bounded():
    rngs = [SeededRNG(seed) for seed in range(12)]
    for rng in rngs:
        for f in FUNCTIONS:
            f.base_trace(rng)
    assert len(fmod._BASE_TRACE_CACHE) <= MAX_ENTRIES


def test_distinct_keys_get_distinct_traces():
    f = function_by_name("DH")
    a = f.base_trace(SeededRNG(1))
    b = f.base_trace(SeededRNG(2))
    assert not traces_equal(a, b)
