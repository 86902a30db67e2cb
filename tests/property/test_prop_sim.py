"""Property tests: event engine, fair-share CPU, accounting, traces."""

import itertools
from typing import List, NamedTuple, Optional, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.accounting import MemoryAccountant
from repro.mem.trace import AccessTrace
from repro.sim.cpu import FairShareCPU
from repro.sim.engine import Delay, Interrupt, Simulator
from repro.sim.rng import SeededRNG


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1,
                max_size=20))
def test_clock_is_monotone_and_sums_delays(delays):
    sim = Simulator()
    stamps = []

    def proc():
        for d in delays:
            yield Delay(d)
            stamps.append(sim.now)

    sim.run_process(proc())
    assert stamps == sorted(stamps)
    assert sim.now == pytest.approx(sum(delays))


class _Level(NamedTuple):
    """One level of a nested sub-process call tree."""

    ident: int
    pre: int                        # Delay before calling the children
    children: Tuple["_Level", ...]  # called in order with ``yield from``
    post: int                       # Delay after the children return
    catch: bool                     # handler armed around the whole body


class _Boom(Exception):
    pass


_MAX_DEPTH = 8


def _caught_value(level: _Level) -> int:
    return 1000 * (level.ident + 1)


def _levels(root: _Level) -> List[_Level]:
    out, todo = [], [root]
    while todo:
        level = todo.pop()
        out.append(level)
        todo.extend(level.children)
    return out


@st.composite
def _call_trees(draw):
    ids = itertools.count()
    budget = [draw(st.integers(1, 24))]

    def build(depth: int) -> _Level:
        ident = next(ids)
        budget[0] -= 1
        children = []
        if depth < _MAX_DEPTH:
            for _ in range(draw(st.integers(0, 2))):
                if budget[0] <= 0:
                    break
                children.append(build(depth + 1))
        return _Level(ident, draw(st.integers(0, 3)), tuple(children),
                      draw(st.integers(0, 3)), draw(st.booleans()))

    root = build(0)
    leaves = [lv.ident for lv in _levels(root) if not lv.children]
    raiser = draw(st.none() | st.sampled_from(leaves))
    span = sum(lv.pre + lv.post for lv in _levels(root))
    # Half-integer interrupt times never tie with the integer wake-ups.
    when = draw(st.none() | st.integers(0, span).map(lambda k: k + 0.5))
    return root, raiser, when


class _Escape(Exception):
    def __init__(self, kind: str, at: float):
        super().__init__(kind)
        self.kind = kind
        self.at = at


def _expected(root: _Level, raiser: Optional[int],
              when: Optional[float]):
    """Walk the tree by hand: (outcome, end time, delivered, caught)."""
    delivered: List[Tuple[int, float]] = []
    caught: List[Tuple[int, str, float]] = []

    def sleep(level: _Level, t: float, dt: int) -> float:
        # The interrupt reaches whichever level is suspended when it
        # fires; strict bounds make it one-shot.
        if when is not None and t < when < t + dt:
            delivered.append((level.ident, when))
            raise _Escape("Interrupt", when)
        return t + dt

    def walk(level: _Level, t: float) -> Tuple[int, float]:
        try:
            t = sleep(level, t, level.pre)
            total = level.ident
            for child in level.children:
                value, t = walk(child, t)
                total += value
            if level.ident == raiser:
                raise _Escape("_Boom", t)
            return total, sleep(level, t, level.post)
        except _Escape as esc:
            if not level.catch:
                raise
            caught.append((level.ident, esc.kind, esc.at))
            return _caught_value(level), esc.at

    try:
        value, end = walk(root, 0.0)
        outcome = ("ok", value)
    except _Escape as esc:
        outcome, end = ("raised", esc.kind), esc.at
    return outcome, end, delivered, caught


def _chain(depth: int) -> _Level:
    level = _Level(depth, 1, (), 1, False)
    for ident in range(depth - 1, -1, -1):
        level = _Level(ident, 1, (level,), 1, ident == 0)
    return level


@settings(max_examples=150, deadline=None)
@given(_call_trees())
@example((_chain(_MAX_DEPTH), None, _MAX_DEPTH + 0.5))
@example((_chain(_MAX_DEPTH), _MAX_DEPTH, None))
def test_nested_calls_match_tree_oracle(case):
    """``yield from`` call trees: values, times, raises and interrupts."""
    root, raiser, when = case
    sim = Simulator()
    delivered: List[Tuple[int, float]] = []
    caught: List[Tuple[int, str, float]] = []

    def nap(level: _Level, dt: int):
        try:
            yield Delay(dt)
        except Interrupt:
            delivered.append((level.ident, sim.now))
            raise

    def run(level: _Level):
        try:
            yield from nap(level, level.pre)
            total = level.ident
            for child in level.children:
                total += yield from run(child)
            if level.ident == raiser:
                raise _Boom(level.ident)
            yield from nap(level, level.post)
            return total
        except (_Boom, Interrupt) as exc:
            if not level.catch:
                raise
            caught.append((level.ident, type(exc).__name__, sim.now))
            return _caught_value(level)

    def top():
        value = yield from run(root)
        return value, sim.now

    def interrupter(handle):
        yield Delay(when)
        handle.interrupt("stop")

    handle = sim.spawn(top())
    if when is not None:
        sim.spawn(interrupter(handle))
    outcome, end, want_delivered, want_caught = _expected(root, raiser, when)
    if outcome[0] == "ok":
        sim.run()
        assert handle.result == (outcome[1], end)
    else:
        # Nobody waits on the top process, so its error leaves run().
        with pytest.raises((_Boom, Interrupt)) as info:
            sim.run()
        assert type(info.value).__name__ == outcome[1]
        assert sim.now == end
    assert delivered == want_delivered
    assert caught == want_caught


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.01, 3.0), min_size=1, max_size=12),
       st.integers(1, 4))
def test_processor_sharing_conservation(works, cores):
    """Total CPU work in == integrated busy time out."""
    sim = Simulator()
    cpu = FairShareCPU(sim, cores)

    def task(w):
        yield from cpu.compute(w)

    for w in works:
        sim.spawn(task(w))
    sim.run()
    total_work = sum(works)
    # Conservation: busy core-seconds equal the work submitted.
    assert cpu.utilization() * cores * sim.now == pytest.approx(
        total_work, rel=1e-6)
    # Makespan bounds: no faster than perfect parallelism, no slower
    # than fully serial.
    assert sim.now >= total_work / cores - 1e-9
    assert sim.now <= total_work + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.01, 3.0), min_size=2, max_size=10))
def test_processor_sharing_fairness(works):
    """Equal work submitted together finishes together."""
    sim = Simulator()
    cpu = FairShareCPU(sim, 1)
    finish = []
    w = works[0]

    def task():
        yield from cpu.compute(w)
        finish.append(sim.now)

    n = len(works)
    for _ in range(n):
        sim.spawn(task())
    sim.run()
    assert max(finish) - min(finish) < 1e-9
    assert finish[0] == pytest.approx(w * n)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"),
                          st.integers(-50, 100)), max_size=30))
def test_accounting_current_is_sum_of_categories(ops):
    acct = MemoryAccountant()
    applied = {}
    for cat, delta in ops:
        if applied.get(cat, 0) + delta < 0:
            continue  # accountant forbids negative categories
        acct.charge(cat, delta)
        applied[cat] = applied.get(cat, 0) + delta
    assert acct.current_bytes == sum(applied.values())
    assert acct.peak_bytes >= acct.current_bytes
    assert acct.peak_bytes >= 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32), st.integers(100, 2000),
       st.floats(0.01, 1.0), st.floats(0.0, 1.0))
def test_trace_generation_invariants(seed, total, touch, write):
    rng = SeededRNG(seed)
    trace = AccessTrace.generate(rng, total, touch, write,
                                 writable_start=total // 4)
    assert np.isin(trace.write_pages, trace.read_pages).all()
    if len(trace.read_pages):
        assert trace.read_pages.min() >= 0
        assert trace.read_pages.max() < total
    if len(trace.write_pages):
        assert trace.write_pages.min() >= total // 4
    assert len(np.unique(trace.read_pages)) == len(trace.read_pages)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.floats(0.0, 0.5))
def test_trace_jitter_preserves_invariants(seed, fraction):
    rng = SeededRNG(seed)
    total = 800
    base = AccessTrace.generate(rng, total, 0.4, 0.3,
                                writable_start=total // 5)
    jit = base.jittered(rng.fork("j"), total, fraction)
    assert np.isin(jit.write_pages, jit.read_pages).all()
    if len(jit.write_pages):
        assert jit.write_pages.min() >= total // 5
    assert len(np.unique(jit.read_pages)) == len(jit.read_pages)
    # Jitter keeps the trace roughly the same size.
    assert abs(len(jit.read_pages) - len(base.read_pages)) \
        <= max(10, 0.6 * fraction * len(base.read_pages) + 5)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.text("abc/", min_size=1, max_size=12))
def test_rng_fork_determinism(seed, name):
    a = SeededRNG(seed).fork(name)
    b = SeededRNG(seed).fork(name)
    assert [a.random() for _ in range(3)] == [b.random() for _ in range(3)]
