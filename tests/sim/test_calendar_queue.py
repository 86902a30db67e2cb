"""Property tests: the calendar queue is pop-for-pop identical to heapq.

The engine schedules wake-ups on a :class:`~repro.sim.engine._CalendarQueue`
(one FIFO bucket per distinct virtual time).  The contract is exact: for
any push sequence (sequence numbers globally monotone, as the engine
guarantees), pop order is identical entry for entry to a reference
``heapq`` ordered by ``(time, seq)`` — cancellations included, since
cancellation is epoch-stamping rather than queue surgery.  These tests
drive randomized seeded workloads through both and diff the streams;
the full-engine test checks wake traces against digests frozen while
the engine still kept a binary-heap scheduler beside the wheel.
"""

import heapq
from itertools import count

import pytest

from repro.sim.engine import Delay, Simulator, _CalendarQueue
from repro.sim.rng import SeededRNG
from tests.integration.test_golden_digests import blake


def _random_schedule(seed, n_events, time_values=16):
    """(time, payload) pushes with many same-tick collisions."""
    rng = SeededRNG(seed, "calq")
    times = [round(rng.uniform(0.0, 10.0), 1) for _ in range(time_values)]
    return [(times[rng.randint(0, time_values)], i) for i in range(n_events)]


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_pop_order_matches_heapq(seed):
    schedule = _random_schedule(seed, n_events=500)
    seq = count()
    wheel = _CalendarQueue()
    heap = []
    for time, payload in schedule:
        s = next(seq)
        wheel.push(time, (s, payload, None, 0))
        heapq.heappush(heap, (time, s, payload))
    wheel_order = []
    while len(wheel):
        t, s, payload, _value, _epoch = wheel.pop()
        wheel_order.append((t, s, payload))
    heap_order = [heapq.heappop(heap) for _ in range(len(heap))]
    assert wheel_order == heap_order


@pytest.mark.parametrize("seed", [3, 11])
def test_interleaved_push_pop_matches_heapq(seed):
    """Pops interleave with pushes at >= the current head time."""
    rng = SeededRNG(seed, "interleave")
    seq = count()
    wheel = _CalendarQueue()
    heap = []
    wheel_order, heap_order = [], []
    now = 0.0
    for i in range(400):
        # Engine invariant: every push lands at now + dt with dt >= 0.
        t = round(now + rng.uniform(0.0, 2.0), 1)
        s = next(seq)
        wheel.push(t, (s, i, None, 0))
        heapq.heappush(heap, (t, s, i))
        if rng.random() < 0.5 and len(wheel):
            wt, ws, wp, _v, _e = wheel.pop()
            wheel_order.append((wt, ws, wp))
            heap_order.append(heapq.heappop(heap))
            now = wt
    while len(wheel):
        wt, ws, wp, _v, _e = wheel.pop()
        wheel_order.append((wt, ws, wp))
        heap_order.append(heapq.heappop(heap))
    assert wheel_order == heap_order


def _randomized_workload(sim, trace, seed, n_procs=40):
    """Spawn sleeper processes, some of which interrupt others."""
    rng = SeededRNG(seed, "procs")

    def sleeper(pid, naps):
        for nap in naps:
            try:
                yield Delay(nap)
            except Exception:  # Interrupt
                trace.append((sim.now, pid, "interrupted"))
                return
            trace.append((sim.now, pid, "woke"))

    waiters = []
    for pid in range(n_procs):
        naps = [round(rng.uniform(0.0, 3.0), 1)
                for _ in range(rng.randint(1, 5))]
        waiters.append(sim.spawn(sleeper(pid, naps), name=f"p{pid}"))

    def saboteur():
        yield Delay(2.0)
        for pid in range(0, n_procs, 3):
            waiters[pid].interrupt("chaos")
        trace.append((sim.now, -1, "sabotage"))

    sim.spawn(saboteur(), name="saboteur")


#: seed -> blake2b of (wake trace, final clock).  Recorded with both the
#: calendar queue and the engine's former reference binary heap, which
#: produced these exact digests.
TRACE_DIGESTS = {
    0: "d03000f810e51b603e2248d1d5724996",
    5: "d826c66a11d260358703d0b0c49c8086",
    9: "c4b2265241192511a0ccd79891c4f55f",
}


@pytest.mark.parametrize("seed", sorted(TRACE_DIGESTS))
def test_engine_trace_identical_with_and_without_wheel(seed):
    """Full-engine property test: wake order with cancellations.

    The same randomized workload (sleepers with same-tick collisions
    plus a saboteur interrupting a third of them mid-nap) must produce
    the (now, pid, event) trace and final clock the heap and the wheel
    both produced when the digests were frozen.
    """
    trace = []
    sim = Simulator()
    _randomized_workload(sim, trace, seed)
    end = sim.run()

    assert trace, "workload produced no events"
    assert any(e[2] == "interrupted" for e in trace), \
        "no cancellations exercised"
    assert blake([trace, end]) == TRACE_DIGESTS[seed]


def test_spawn_at_many_matches_individual_spawn_at():
    """Batch spawning assigns the same sequence order as a spawn loop."""
    def build(batch):
        trace = []

        def body(i):
            trace.append((round(sim.now, 6), i))
            yield Delay(0.1)
            trace.append((round(sim.now, 6), i, "done"))

        sim = Simulator()
        rng = SeededRNG(13, "batch")
        schedule = [(round(rng.uniform(0.0, 4.0), 1), i)
                    for i in range(200)]
        schedule.sort()
        if batch:
            sim.spawn_at_many((t, body(i)) for t, i in schedule)
        else:
            for t, i in schedule:
                sim.spawn_at(t, body(i))
        sim.run()
        return trace

    assert build(batch=True) == build(batch=False)


def test_spawn_at_many_rejects_past_times():
    from repro.sim.engine import SimulationError

    def noop():
        return
        yield

    def nap():
        yield Delay(1.0)

    sim = Simulator()
    sim.spawn_at_many([(0.0, noop())])  # now == 0.0 is fine
    sim.run_process(nap())              # advances now to 1.0
    with pytest.raises(SimulationError):
        sim.spawn_at_many([(0.5, noop())])
