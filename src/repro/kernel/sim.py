"""Discrete-event simulator.

Carries the temporal semantics the countermeasure's correctness argument
rests on: MSR ioctl latency, voltage-regulator settle time, polling
period and victim execution all live on one timeline, so the
"turnaround time" discussion of Sec. 5 is directly measurable.

Two scheduling styles are supported:

* callbacks — ``schedule(delay, fn)`` / ``schedule_recurring(period, fn)``;
* cooperative tasks — ``spawn(generator)`` where the generator yields the
  number of seconds to sleep before being resumed (a SimPy-style
  coroutine, used for the DVFS/EXECUTE/polling threads).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.telemetry import Telemetry


@dataclass(order=True)
class _QueueEntry:
    time: float
    sequence: int
    event: "Event" = field(compare=False)


class Event:
    """A scheduled callback; cancellable until it fires."""

    __slots__ = ("callback", "cancelled", "time")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing."""
        self.cancelled = True


class RecurringEvent:
    """Handle for a periodically re-armed callback."""

    def __init__(self, simulator: "Simulator", period: float, callback: Callable[[], None]) -> None:
        if period <= 0:
            raise SimulationError("recurring period must be positive")
        self._simulator = simulator
        self._period = period
        self._callback = callback
        self._cancelled = False
        self._current: Optional[Event] = None
        self.fire_count = 0
        self._arm()

    def _arm(self) -> None:
        self._current = self._simulator.schedule(self._period, self._fire)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fire_count += 1
        self._callback()
        if not self._cancelled:
            self._arm()

    def cancel(self) -> None:
        """Stop future firings."""
        self._cancelled = True
        if self._current is not None:
            self._current.cancel()

    @property
    def period(self) -> float:
        """Interval between firings, seconds."""
        return self._period


#: A cooperative task body: yields sleep durations in seconds.
TaskBody = Generator[float, None, Any]


class Task:
    """A spawned cooperative task."""

    def __init__(self, simulator: "Simulator", body: TaskBody, name: str) -> None:
        self._simulator = simulator
        self._body = body
        self.name = name
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._cancelled = False

    def cancel(self) -> None:
        """Stop resuming the task (it never runs again)."""
        self._cancelled = True
        self.done = True

    def _step(self) -> None:
        if self._cancelled or self.done:
            return
        try:
            delay = next(self._body)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            sim = self._simulator
            if sim._tracer is not None:
                sim._tracer.instant("task.done", "sim", sim.now, track="sim", task=self.name)
            return
        except BaseException as error:  # noqa: BLE001 - surfaced via .error
            self.done = True
            self.error = error
            raise
        if delay < 0:
            self.done = True
            self.error = SimulationError("task yielded a negative delay")
            raise self.error
        self._simulator.schedule(delay, self._step)


class SimObserver:
    """No-op base for everything that observes a run on the event loop.

    Attach with :meth:`Simulator.attach`.  The loop calls
    ``after_step(simulator, event_time)`` after each clock advance (before
    the event callback runs), ``after_event(callback, advanced_s, wall_s)``
    after the callback returns (the callback object, the simulated time
    the event advanced the clock by, and the callback's wall-clock cost),
    and ``after_run_until(simulator)`` once a :meth:`Simulator.run_until`
    window completes.  The machine's components call the rest: the
    processor calls ``on_ocm`` around each 0x150 transaction and
    ``on_regulator_request`` after each offset request it hands a
    regulator, the fault injector calls ``on_fault_window`` after every
    sampled window and single-instruction probe.  Subclasses override the
    hooks they need.
    """

    def after_step(self, simulator: "Simulator", event_time: float) -> None:
        """A processed event moved the clock to ``event_time``."""

    def after_event(
        self, callback: Callable[[], None], advanced_s: float, wall_s: float
    ) -> None:
        """An event callback returned."""

    def after_run_until(self, simulator: "Simulator") -> None:
        """A :meth:`Simulator.run_until` window completed."""

    def on_ocm(
        self,
        phase: str,
        core_index: int,
        value: int,
        command: Any,
        response: Optional[int],
    ) -> None:
        """A 0x150 transaction: ``phase`` is ``"command"`` before the
        mailbox acts (``response`` is ``None``), then ``"response"``."""

    def on_regulator_request(
        self, regulator: Any, plane: Any, transition: Any, now: float
    ) -> None:
        """A 0x150 write requested ``transition`` on ``regulator``'s plane."""

    def on_fault_window(
        self, conditions: Any, fault_count: int, crashed: bool, instruction: str
    ) -> None:
        """The fault injector sampled one window or single-instruction probe."""


class Simulator:
    """Priority-queue discrete-event simulator with a monotone clock."""

    def __init__(self, *, telemetry: Optional[Telemetry] = None) -> None:
        self._now = 0.0
        self._heap: List[_QueueEntry] = []
        self._sequence = itertools.count()
        self.processed_events = 0
        if telemetry is None:
            telemetry = Telemetry(max_events=0)
        self._tracer = telemetry.tracer
        self._scheduled_counter = telemetry.registry.counter("sim.events_scheduled")
        self._processed_counter = telemetry.registry.counter("sim.events_processed")
        self._spawned_counter = telemetry.registry.counter("sim.tasks_spawned")
        # Attached observers (repro.verify, repro.observe).  Empty means
        # the hot path pays one tuple truth test per event and nothing
        # else, keeping tier-1 timing byte-identical.
        self._observers: Tuple[SimObserver, ...] = ()

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def clock(self) -> Callable[[], float]:
        """A time-source callable for time-driven hardware components."""
        return lambda: self._now

    # -- observation -------------------------------------------------------------

    @property
    def observers(self) -> Tuple[SimObserver, ...]:
        """The attached observers, in attach order."""
        return self._observers

    def attach(self, observer: SimObserver) -> None:
        """Add ``observer`` to the event loop (no-op when already attached).

        Every attached observer receives the full :class:`SimObserver`
        protocol; any number may be attached, in any order.
        """
        if not any(attached is observer for attached in self._observers):
            self._observers += (observer,)

    def detach(self, observer: SimObserver) -> None:
        """Remove ``observer`` (no-op when it is not attached)."""
        self._observers = tuple(
            attached for attached in self._observers if attached is not observer
        )

    def pending_entries(self) -> List[tuple]:
        """``(time, cancelled)`` snapshot of every entry still in the heap.

        Exists for heap-hygiene auditing (repro.verify) and tests; the
        returned list is a copy and mutating it does not affect the queue.
        """
        return [(entry.time, entry.event.cancelled) for entry in self._heap]

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        event = Event(self._now + delay, callback)
        heapq.heappush(self._heap, _QueueEntry(event.time, next(self._sequence), event))
        self._scheduled_counter.inc()
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` at an absolute time (>= now)."""
        return self.schedule(time - self._now, callback)

    def schedule_recurring(self, period: float, callback: Callable[[], None]) -> RecurringEvent:
        """Run ``callback`` every ``period`` seconds until cancelled."""
        return RecurringEvent(self, period, callback)

    def spawn(self, body: TaskBody, *, name: str = "task") -> Task:
        """Start a cooperative task; its first step runs at the current time."""
        task = Task(self, body, name)
        self.schedule(0.0, task._step)
        self._spawned_counter.inc()
        if self._tracer is not None:
            self._tracer.instant("task.spawn", "sim", self._now, track="sim", task=name)
        return task

    # -- execution ---------------------------------------------------------------

    def step(self) -> bool:
        """Process the next event; returns False if the queue is empty."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry.event.cancelled:
                continue
            if entry.time < self._now:
                raise SimulationError("event queue produced a time in the past")
            if not self._observers:
                self._now = entry.time
                self.processed_events += 1
                self._processed_counter.inc()
                entry.event.callback()
                return True
            # The observed dispatch body.  ``advanced_s`` is sim time and
            # deterministic; ``wall_s`` is not, and observers keep the
            # two strictly apart.
            observers = self._observers
            advanced_s = entry.time - self._now
            self._now = entry.time
            self.processed_events += 1
            self._processed_counter.inc()
            for observer in observers:
                observer.after_step(self, entry.time)
            callback = entry.event.callback
            start = perf_counter()
            callback()
            wall_s = perf_counter() - start
            for observer in observers:
                observer.after_event(callback, advanced_s, wall_s)
            return True
        return False

    def run_until(self, time: float) -> None:
        """Process events up to and including ``time``; clock ends at ``time``."""
        if time < self._now:
            raise SimulationError("cannot run into the past")
        while self._heap:
            head = self._heap[0]
            if head.event.cancelled:
                heapq.heappop(self._heap)
                continue
            if head.time > time:
                break
            self.step()
        self._now = time
        # Stopping with a live head beyond ``time`` can strand cancelled
        # entries deeper in the heap; purge them so repeated run_until
        # calls against long-lived simulators cannot accumulate garbage.
        self.prune()
        for observer in self._observers:
            observer.after_run_until(self)

    def prune(self) -> None:
        """Drop every cancelled entry still parked in the event heap.

        :meth:`run_until` does this automatically at the end of each
        window; quiescent-state audits (repro.verify) call it explicitly
        before asserting heap hygiene, because a cancellation issued
        after the last window legitimately leaves its entry parked until
        the next purge.
        """
        if any(entry.event.cancelled for entry in self._heap):
            self._heap = [e for e in self._heap if not e.event.cancelled]
            heapq.heapify(self._heap)

    def run(self, *, max_events: int = 10_000_000) -> None:
        """Drain the event queue entirely (bounded by ``max_events``)."""
        processed = 0
        while self.step():
            processed += 1
            if processed >= max_events:
                raise SimulationError(f"exceeded {max_events} events; runaway simulation?")

    def run_while(self, predicate: Callable[[], bool], *, max_events: int = 10_000_000) -> None:
        """Process events while ``predicate()`` holds and events remain."""
        processed = 0
        while predicate() and self.step():
            processed += 1
            if processed >= max_events:
                raise SimulationError(f"exceeded {max_events} events; runaway simulation?")
