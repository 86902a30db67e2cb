"""Generator-based discrete-event simulation engine.

Processes are Python generators that yield *commands*:

* ``Delay(dt)`` — suspend for ``dt`` simulated seconds.
* ``Event`` — suspend until the event is triggered; the event's payload is
  sent back into the generator.
* ``Waiter`` — suspend until that spawned process finishes; its return
  value is sent back (its exception is thrown in).

A process calls a sub-process with ``value = yield from sub()``: Python
runs the nested generator inline, so a call costs the engine nothing.
Yielding anything else, a bare generator included, is a
:class:`SimulationError`.

The engine is deterministic: ties in the event queue are broken by a
monotonically increasing sequence number, so two runs with the same seeds
produce identical traces.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from collections.abc import Generator as _GeneratorABC
from typing import (Any, Callable, Deque, Dict, Generator, Iterable, List,
                    Optional, Tuple)

from repro.analysis import hooks


class SimulationError(RuntimeError):
    """Raised for engine misuse (e.g. yielding an unknown command)."""


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting.

    The ``cause`` attribute carries whatever the interrupter supplied.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Delay:
    """Command: suspend the yielding process for ``dt`` simulated seconds."""

    __slots__ = ("dt",)

    def __init__(self, dt: float):
        if dt < 0:
            raise ValueError(f"negative delay: {dt}")
        self.dt = float(dt)

    def __repr__(self) -> str:
        return f"Delay({self.dt:.6f})"


class Event:
    """A one-shot condition processes can wait on.

    Triggering delivers ``value`` to every waiter.  Triggering twice is an
    error; use separate events per occurrence.

    Waiters live in an insertion-ordered dict so :meth:`remove_waiter`
    (the interrupt path) is O(1) while :meth:`trigger` still wakes tasks
    in the order they started waiting.
    """

    __slots__ = ("sim", "triggered", "value", "_waiters")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._waiters: Dict["_Task", None] = {}

    def trigger(self, value: Any = None) -> None:
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, {}
        for task in waiters:
            self.sim._schedule(0.0, task, value)

    def add_waiter(self, task: "_Task") -> None:
        if self.triggered:
            self.sim._schedule(0.0, task, self.value)
        else:
            self._waiters[task] = None

    def remove_waiter(self, task: "_Task") -> None:
        self._waiters.pop(task, None)


class Waiter:
    """Handle returned by :meth:`Simulator.spawn`.

    Exposes completion state, the process return value, and an
    :meth:`interrupt` hook.  A waiter is itself awaitable from other
    processes via its :attr:`done_event`.
    """

    __slots__ = ("task",)

    def __init__(self, task: "_Task"):
        self.task = task

    @property
    def done_event(self) -> Event:
        return self.task.done_event

    @property
    def done(self) -> bool:
        return self.task.finished

    @property
    def result(self) -> Any:
        if not self.task.finished:
            raise SimulationError("process still running")
        if self.task.error is not None:
            raise self.task.error
        return self.task.result

    def interrupt(self, cause: Any = None) -> None:
        self.task.interrupt(cause)


class _Task:
    """Internal driver for one process generator."""

    __slots__ = ("sim", "gen", "finished", "result", "error", "_done_event",
                 "_waiting_on", "name", "_epoch")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        # Raw label only; the generator-name fallback is resolved at
        # error-report time so batch spawns skip the getattr.
        self.name = name
        self.finished = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        # Created on first use: most tasks (every batch-spawned arrival)
        # are never awaited, so the completion Event would be pure
        # allocation overhead on the spawn hot path.
        self._done_event: Optional[Event] = None
        self._waiting_on: Optional[Event] = None
        # Bumped by interrupt() to invalidate queue entries scheduled
        # before the interrupt (e.g. a pending Delay wake-up) — without
        # this, an interrupted sleeper would get a spurious second wake.
        self._epoch = 0

    def interrupt(self, cause: Any = None) -> None:
        if self.finished:
            return
        if self._waiting_on is not None:
            self._waiting_on.remove_waiter(self)
            self._waiting_on = None
        self._epoch += 1
        self.sim._schedule(0.0, self, Interrupt(cause))

    def step(self, send_value: Any) -> None:
        """Advance the generator until it suspends again or finishes."""
        self._waiting_on = None
        gen = self.gen
        while True:
            try:
                if send_value is None:
                    # Overwhelmingly the common case (spawns and Delay
                    # wake-ups both send None): skip the isinstance
                    # chain entirely.
                    cmd = gen.send(None)
                elif isinstance(send_value, Interrupt):
                    cmd = gen.throw(send_value)
                elif isinstance(send_value, _Raise):
                    cmd = gen.throw(send_value.error)
                else:
                    cmd = gen.send(send_value)
            except StopIteration as stop:
                self._finish(result=stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - surfaced by _finish
                self._finish(error=exc)
                return

            if isinstance(cmd, Delay):
                self.sim._schedule(cmd.dt, self, None)
                return
            if isinstance(cmd, Event):
                self._waiting_on = cmd
                cmd.add_waiter(self)
                return
            if isinstance(cmd, Waiter):
                if cmd.done:
                    send_value = _result_or_raise(cmd)
                    continue
                self._waiting_on = cmd.done_event
                cmd.done_event.add_waiter(self)
                return
            label = self.name or getattr(gen, "__name__", "proc")
            hint = ""
            if isinstance(cmd, _GeneratorABC):
                hint = ("; call a sub-process with `yield from "
                        f"{getattr(cmd, '__name__', 'sub')}(...)`, "
                        "not a bare `yield`")
            raise SimulationError(f"process {label} yielded {cmd!r}{hint}")

    @property
    def done_event(self) -> Event:
        event = self._done_event
        if event is None:
            event = self._done_event = Event(self.sim)
            if self.finished:
                event.trigger(_Raise(self.error)
                              if self.error is not None else self.result)
        return event

    def _finish(self, result: Any = None, error: Optional[BaseException] = None) -> None:
        self.finished = True
        self.result = result
        self.error = error
        event = self._done_event
        if error is not None:
            if event is None or not event._waiters:
                # Nobody is waiting: surface the failure immediately so
                # bugs do not pass silently.
                raise error
            event.trigger(_Raise(error))
        elif event is not None:
            event.trigger(result)


class _Raise:
    """A failed :class:`Waiter`'s error, in transit to the processes
    waiting on it; :meth:`_Task.step` throws it into each of them."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error


def _result_or_raise(waiter: Waiter) -> Any:
    if waiter.task.error is not None:
        return _Raise(waiter.task.error)
    return waiter.task.result


class _CalendarQueue:
    """Calendar/timer-wheel event queue: one FIFO bucket per distinct time.

    The engine's workload is dominated by *same-tick* scheduling — event
    triggers, spawns and interrupt wake-ups all enqueue at ``dt == 0``
    while the current tick is still draining.  A binary heap pays
    O(log n) tuple comparisons for each of those; here they are a plain
    ``deque.append`` into the bucket being drained.  The heap of
    *distinct* times only sees one push per new virtual timestamp.

    Entries are ``(seq, task, value, epoch)`` and sequence numbers are
    globally monotone, so FIFO order within a bucket is exactly ``seq``
    order — pop order is identical, entry for entry, to a binary heap
    ordered by ``(time, seq)`` (the property test in
    ``tests/sim/test_calendar_queue.py`` pins this, cancellations
    included).  Cancellation stays O(1): the epoch stamp is checked at
    pop, never scanned for.
    """

    __slots__ = ("_buckets", "_times")

    def __init__(self) -> None:
        #: time -> FIFO of (seq, task, value, epoch), appended in seq order.
        self._buckets: Dict[float, Deque[Tuple[int, "_Task", Any, int]]] = {}
        #: min-heap of times that currently (or recently) own a bucket.
        self._times: List[float] = []

    def push(self, time: float, entry: Tuple[int, "_Task", Any, int]) -> None:
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = deque((entry,))
            heapq.heappush(self._times, time)
        else:
            # Same-tick fast path: no heap traffic at all.  The drained
            # bucket is only garbage-collected lazily (peek), so a burst
            # of dt=0 wake-ups lands here even mid-drain.
            bucket.append(entry)

    def peek_key(self) -> Optional[Tuple[float, int]]:
        """(time, seq) of the next pop, or None when empty."""
        times = self._times
        buckets = self._buckets
        while times:
            t = times[0]
            bucket = buckets.get(t)
            if bucket:
                return (t, bucket[0][0])
            heapq.heappop(times)
            if bucket is not None:
                del buckets[t]
        return None

    def pop(self) -> Tuple[float, int, "_Task", Any, int]:
        key = self.peek_key()
        if key is None:
            raise IndexError("pop from empty calendar queue")
        t = key[0]
        seq, task, value, epoch = self._buckets[t].popleft()
        return t, seq, task, value, epoch

    def pop_head(self) -> Tuple[float, int, "_Task", Any, int]:
        """Pop immediately after a successful :meth:`peek_key`.

        Skips the head-validation walk ``peek_key`` already performed;
        only valid while nothing was pushed/popped in between.
        """
        t = self._times[0]
        seq, task, value, epoch = self._buckets[t].popleft()
        return t, seq, task, value, epoch

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())


class Simulator:
    """Deterministic event loop with a virtual clock in seconds.

    Task wake-ups live on a :class:`_CalendarQueue`, which pops in exact
    ``(time, seq)`` order; plain callbacks (:meth:`call_at`) live on a
    small binary heap beside it and interleave by the same key.
    """

    def __init__(self):
        self.now: float = 0.0
        self._wheel = _CalendarQueue()
        self._seq = itertools.count()
        self._callbacks: List[Tuple[float, int, Callable[[], None]]] = []

    # -- process management -------------------------------------------------

    def spawn(self, gen: Generator, name: str = "") -> Waiter:
        """Start a process generator; returns a :class:`Waiter`."""
        task = _Task(self, gen, name=name)
        self._schedule(0.0, task, None)
        return Waiter(task)

    def spawn_at(self, when: float, gen: Generator, name: str = "") -> Waiter:
        """Start ``gen`` at absolute simulated time ``when`` (>= now).

        Equivalent to spawning a wrapper that first ``Delay``-sleeps
        until ``when``, minus the wrapper: one queue entry instead of
        two and no throwaway generator.
        """
        if when < self.now:
            raise SimulationError(
                f"spawn_at into the past: {when} < {self.now}")
        task = _Task(self, gen, name=name)
        self._schedule(when - self.now, task, None)
        return Waiter(task)

    def spawn_at_many(self,
                      schedule: Iterable[Tuple[float, Generator]]
                      ) -> List[Waiter]:
        """Batch :meth:`spawn_at` for a whole arrival schedule.

        Equivalent to ``[spawn_at(t, g) for t, g in schedule]`` (same
        sequence-number assignment order, so identical pop order), but
        consecutive same-time entries reuse one bucket lookup — on a
        quantised trace that is one dict probe per distinct tick rather
        than per invocation.  Wake times are ``when`` exactly;
        :meth:`spawn_at` round-trips through ``now + (when - now)``,
        which is bit-identical whenever ``now == 0.0`` (how workload
        runners use both).  Workload runners spawn their precomputed
        arrival schedules this way.
        """
        now = self.now
        nxt = self._seq.__next__
        buckets = self._wheel._buckets
        times_heap = self._wheel._times
        waiters: List[Waiter] = []
        out = waiters.append
        task_cls = _Task
        waiter_cls = Waiter
        last_time: Optional[float] = None
        put = None
        for when, gen in schedule:
            if when < now:
                raise SimulationError(
                    f"spawn_at into the past: {when} < {now}")
            task = task_cls(self, gen)
            if when != last_time:
                bucket = buckets.get(when)
                if bucket is None:
                    bucket = buckets[when] = deque()
                    heapq.heappush(times_heap, when)
                put = bucket.append
                last_time = when
            put((nxt(), task, None, 0))
            out(waiter_cls(task))
        return waiters

    def event(self) -> Event:
        return Event(self)

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run a plain callback at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(f"call_at into the past: {when} < {self.now}")
        heapq.heappush(self._callbacks, (when, next(self._seq), fn))

    def _schedule(self, dt: float, task: _Task, value: Any) -> None:
        self._wheel.push(self.now + dt,
                         (next(self._seq), task, value, task._epoch))

    # -- running -------------------------------------------------------------

    def run(self, until: Optional[float] = None, *,
            pad: bool = True) -> float:
        """Drain events; stop at ``until`` (simulated seconds) if given.

        The loop body is :meth:`_peek_time` + :meth:`_step` fused: at
        trace scale the peek/step call chain itself is measurable, so
        the head is computed once per event and popped directly.

        With ``pad`` (the default) the clock is advanced to ``until``
        even when the last event lands earlier — the historical
        behaviour.  ``pad=False`` leaves ``now`` at the last executed
        event, which :meth:`run_window` needs so a windowed run reports
        the same final clock as one uninterrupted ``run()``.
        """
        callbacks = self._callbacks
        wtimes = self._wheel._times
        wbuckets = self._wheel._buckets
        while True:
            # Inlined peek_key: validate the head bucket once and keep
            # it so the pops below are bare poplefts.
            head = None
            bucket = None
            while wtimes:
                t = wtimes[0]
                bucket = wbuckets.get(t)
                if bucket:
                    head = (t, bucket[0][0])
                    break
                heapq.heappop(wtimes)
                if bucket is not None:
                    del wbuckets[t]
            if callbacks:
                cb = callbacks[0]
                if head is None or (cb[0], cb[1]) < head:
                    when = cb[0]
                    if until is not None and when > until:
                        if pad:
                            self.now = until
                        return self.now
                    heapq.heappop(callbacks)
                    if hooks.active is not None:
                        hooks.active.on_sim_event(self, when)
                    self.now = when
                    cb[2]()
                    continue
            if head is None:
                break
            when = head[0]
            if until is not None and when > until:
                if pad:
                    self.now = until
                return self.now
            # Drain the whole bucket: pushes during a step are at
            # now + dt >= now, so this bucket stays the queue head until
            # it empties.  Only a callback ordered before the bucket's
            # next entry can interleave — bail to the outer loop when
            # one appears.
            while bucket:
                if callbacks and \
                        (callbacks[0][0], callbacks[0][1]) < \
                        (when, bucket[0][0]):
                    break
                _seq, task, value, epoch = bucket.popleft()
                if hooks.active is not None:
                    hooks.active.on_sim_event(self, when)
                if task.finished or epoch != task._epoch:
                    # Stale wake-up (task interrupted since it was
                    # scheduled): drop, don't advance the clock.
                    continue
                self.now = when
                task.step(value)
        if until is not None and pad:
            self.now = max(self.now, until)
        return self.now

    def run_window(self, until: float) -> float:
        """Execute every event scheduled at ``time <= until``.

        The conservative-PDES stepping primitive
        (:mod:`repro.sim.parallel`): identical to ``run(until)`` except
        the clock is *not* padded to the window boundary, so driving a
        simulator window-by-window and then draining the remainder with
        ``run()`` finishes with exactly the clock an uninterrupted
        ``run()`` would report.  Events land strictly inside windows —
        an event at the boundary itself belongs to the closing window.
        """
        return self.run(until, pad=False)

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Spawn ``gen`` and run until it completes; return its value."""
        waiter = self.spawn(gen, name=name)
        while not waiter.done:
            if self._peek_time() is None:
                raise SimulationError(
                    f"deadlock: process {name or 'proc'} never completed")
            self._step()
        return waiter.result

    def _peek_time(self) -> Optional[float]:
        head = self._wheel.peek_key()
        callbacks = self._callbacks
        if callbacks:
            cb_time = callbacks[0][0]
            if head is None or cb_time < head[0]:
                return cb_time
            return head[0]
        return head[0] if head is not None else None

    def _step(self) -> None:
        wheel = self._wheel
        callbacks = self._callbacks
        if callbacks:
            head = wheel.peek_key()
            if head is None or (callbacks[0][0], callbacks[0][1]) < head:
                when, _seq, fn = heapq.heappop(callbacks)
                if hooks.active is not None:
                    hooks.active.on_sim_event(self, when)
                self.now = when
                fn()
                return
        # The head was just validated — by the peek above, or by the
        # caller (run_process peeks before every step) — so pop it
        # without re-walking.
        when, _seq, task, value, epoch = wheel.pop_head()
        if hooks.active is not None:
            hooks.active.on_sim_event(self, when)
        if task.finished or epoch != task._epoch:
            # Stale wake-up (task interrupted since it was scheduled):
            # drop it without advancing the clock.
            return
        self.now = when
        task.step(value)

    # -- conveniences --------------------------------------------------------

    def all_of(self, waiters: Iterable[Waiter]) -> Generator:
        """Process helper: wait for every waiter, return list of results."""
        def _gather():
            results = []
            for waiter in waiters:
                value = yield waiter
                results.append(value)
            return results
        return _gather()
