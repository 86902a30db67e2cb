"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Delay, Interrupt, SimulationError, Simulator


def test_delay_advances_clock():
    sim = Simulator()

    def proc():
        yield Delay(1.5)
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(1.5)


def test_zero_delay_runs_same_time():
    sim = Simulator()

    def proc():
        yield Delay(0.0)
        return sim.now

    assert sim.run_process(proc()) == 0.0


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1.0)


def test_subprocess_composition_returns_value():
    sim = Simulator()

    def inner():
        yield Delay(2.0)
        return "inner-done"

    def outer():
        value = yield from inner()
        return value, sim.now

    value, now = sim.run_process(outer())
    assert value == "inner-done"
    assert now == pytest.approx(2.0)


def test_deeply_nested_subprocesses():
    sim = Simulator()

    def leaf(depth):
        yield Delay(0.1)
        return depth

    def walk(depth):
        if depth == 0:
            result = yield from leaf(0)
            return result
        result = yield from walk(depth - 1)
        return result + 1

    assert sim.run_process(walk(20)) == 20
    assert sim.now == pytest.approx(0.1)


def test_event_wakes_waiter_with_value():
    sim = Simulator()
    evt = sim.event()
    results = []

    def waiter():
        value = yield evt
        results.append((sim.now, value))

    def trigger():
        yield Delay(3.0)
        evt.trigger("payload")

    sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert results == [(3.0, "payload")]


def test_event_triggered_before_wait_resolves_immediately():
    sim = Simulator()
    evt = sim.event()
    evt.trigger(42)

    def proc():
        value = yield evt
        return value

    assert sim.run_process(proc()) == 42


def test_event_double_trigger_is_error():
    sim = Simulator()
    evt = sim.event()
    evt.trigger()
    with pytest.raises(SimulationError):
        evt.trigger()


def test_waiter_result_and_done():
    sim = Simulator()

    def proc():
        yield Delay(1.0)
        return 7

    waiter = sim.spawn(proc())
    assert not waiter.done
    sim.run()
    assert waiter.done
    assert waiter.result == 7


def test_waiter_result_before_done_raises():
    sim = Simulator()
    waiter = sim.spawn(iter(()))  # never scheduled generator-ish
    # A plain empty iterator is not a generator; spawn a real one instead.
    def proc():
        yield Delay(1.0)
    waiter = sim.spawn(proc())
    with pytest.raises(SimulationError):
        _ = waiter.result


def test_yield_on_waiter_gets_return_value():
    sim = Simulator()

    def child():
        yield Delay(2.0)
        return "child"

    def parent():
        handle = sim.spawn(child())
        value = yield handle
        return value, sim.now

    value, now = sim.run_process(parent())
    assert value == "child"
    assert now == pytest.approx(2.0)


def test_yield_on_finished_waiter_immediate():
    sim = Simulator()

    def child():
        yield Delay(1.0)
        return 5

    def parent():
        handle = sim.spawn(child())
        yield Delay(4.0)
        value = yield handle  # already finished
        return value, sim.now

    value, now = sim.run_process(parent())
    assert value == 5
    assert now == pytest.approx(4.0)


def test_exception_propagates_to_parent_process():
    sim = Simulator()

    def child():
        yield Delay(0.5)
        raise ValueError("boom")

    def parent():
        try:
            yield from child()
        except ValueError as exc:
            return f"caught {exc}"

    assert sim.run_process(parent()) == "caught boom"


def test_exception_propagates_through_waiter():
    sim = Simulator()

    def child():
        yield Delay(0.5)
        raise KeyError("k")

    def parent():
        handle = sim.spawn(child())
        try:
            yield handle
        except KeyError:
            return "caught"

    assert sim.run_process(parent()) == "caught"


def test_unobserved_exception_surfaces():
    sim = Simulator()

    def bad():
        yield Delay(0.1)
        raise RuntimeError("unobserved")

    sim.spawn(bad())
    with pytest.raises(RuntimeError, match="unobserved"):
        sim.run()


def test_interrupt_while_delayed():
    sim = Simulator()
    outcome = []

    def sleeper():
        try:
            yield Delay(100.0)
        except Interrupt as intr:
            outcome.append((sim.now, intr.cause))

    def interrupter(handle):
        yield Delay(1.0)
        handle.interrupt("wake-up")

    handle = sim.spawn(sleeper())
    sim.spawn(interrupter(handle))
    sim.run()
    assert outcome == [(1.0, "wake-up")]


def test_interrupt_while_waiting_on_event_detaches_waiter():
    sim = Simulator()
    evt = sim.event()
    log = []

    def waiter():
        try:
            yield evt
        except Interrupt:
            log.append("interrupted")

    handle = sim.spawn(waiter())

    def driver():
        yield Delay(1.0)
        handle.interrupt()
        yield Delay(1.0)
        evt.trigger("late")

    sim.spawn(driver())
    sim.run()
    assert log == ["interrupted"]


def test_run_until_stops_clock():
    sim = Simulator()

    def proc():
        yield Delay(10.0)

    sim.spawn(proc())
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == pytest.approx(10.0)


def test_deterministic_tie_breaking():
    sim = Simulator()
    order = []

    def proc(tag):
        yield Delay(1.0)
        order.append(tag)

    for tag in "abc":
        sim.spawn(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_call_at_callback():
    sim = Simulator()
    hits = []
    sim.call_at(2.0, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [2.0]


def test_call_at_past_raises():
    sim = Simulator()

    def proc():
        yield Delay(5.0)

    sim.run_process(proc())
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_all_of_gathers_results():
    sim = Simulator()

    def worker(i):
        yield Delay(float(i))
        return i * 10

    def main():
        handles = [sim.spawn(worker(i)) for i in (3, 1, 2)]
        results = yield from sim.all_of(handles)
        return results, sim.now

    results, now = sim.run_process(main())
    assert results == [30, 10, 20]
    assert now == pytest.approx(3.0)


def test_yield_garbage_raises():
    sim = Simulator()

    def proc():
        yield "not-a-command"

    with pytest.raises(SimulationError):
        sim.run_process(proc())


def test_bare_yield_of_subprocess_raises_with_hint():
    sim = Simulator()

    def inner():
        yield Delay(1.0)
        return "never"

    def outer():
        value = yield inner()
        return value

    with pytest.raises(SimulationError,
                       match=r"process outer yielded .*`yield from inner"):
        sim.run_process(outer())
    assert sim.now == 0.0


def test_run_process_deadlock_detected():
    sim = Simulator()
    evt = sim.event()

    def stuck():
        yield evt

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(stuck())
