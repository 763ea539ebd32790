"""Discrete-event simulator: ordering, recurrence, cooperative tasks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.kernel.sim import SimObserver, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(1.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_event_scheduled_from_callback(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]
        assert sim.now == pytest.approx(2.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_firing_times_always_nondecreasing(self, delays):
        sim = Simulator()
        times = []
        for d in delays:
            sim.schedule(d, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)


class TestRunUntil:
    def test_stops_at_deadline(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(2.0)
        assert fired == [1]
        assert sim.now == pytest.approx(2.0)

    def test_later_events_still_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(2.0)
        sim.run_until(6.0)
        assert fired == [5]

    def test_cannot_run_backwards(self):
        sim = Simulator()
        sim.run_until(2.0)
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_inclusive_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(1))
        sim.run_until(2.0)
        assert fired == [1]

    def test_cancelled_events_purged_when_stopping_early(self):
        # Regression: stopping before a live head used to leave cancelled
        # entries parked behind it, accumulating across run_until calls.
        sim = Simulator()
        fired = []
        sim.schedule(2.5, lambda: fired.append("live"))
        cancelled = sim.schedule(3.0, lambda: fired.append("cancelled"))
        cancelled.cancel()
        sim.run_until(2.0)
        assert fired == []
        assert not any(entry.event.cancelled for entry in sim._heap)
        sim.run_until(3.5)
        assert fired == ["live"]
        assert sim._heap == []


class TestRecurring:
    def test_fires_every_period(self):
        sim = Simulator()
        times = []
        sim.schedule_recurring(0.5, lambda: times.append(sim.now))
        sim.run_until(2.25)
        assert times == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_cancel_stops_future_firings(self):
        sim = Simulator()
        count = [0]
        handle = sim.schedule_recurring(0.5, lambda: count.__setitem__(0, count[0] + 1))
        sim.run_until(1.1)
        handle.cancel()
        sim.run_until(5.0)
        assert count[0] == 2
        assert handle.fire_count == 2

    def test_nonpositive_period_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_recurring(0.0, lambda: None)


class TestTasks:
    def test_task_sleeps_between_yields(self):
        sim = Simulator()
        trace = []

        def body():
            trace.append(("start", sim.now))
            yield 1.0
            trace.append(("mid", sim.now))
            yield 2.0
            trace.append(("end", sim.now))
            return "done"

        task = sim.spawn(body())
        sim.run()
        assert task.done
        assert task.result == "done"
        assert trace == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]

    def test_task_cancel(self):
        sim = Simulator()
        steps = []

        def body():
            while True:
                steps.append(sim.now)
                yield 1.0

        task = sim.spawn(body())
        sim.run_until(2.5)
        task.cancel()
        sim.run_until(10.0)
        assert len(steps) == 3  # t=0, 1, 2

    def test_task_error_propagates_and_is_recorded(self):
        sim = Simulator()

        def body():
            yield 0.1
            raise ValueError("boom")

        task = sim.spawn(body())
        with pytest.raises(ValueError):
            sim.run()
        assert task.done
        assert isinstance(task.error, ValueError)

    def test_negative_yield_rejected(self):
        sim = Simulator()

        def body():
            yield -1.0

        sim.spawn(body())
        with pytest.raises(SimulationError):
            sim.run()

    def test_concurrent_tasks_interleave(self):
        sim = Simulator()
        trace = []

        def worker(name, period):
            for _ in range(3):
                trace.append((name, round(sim.now, 6)))
                yield period

        sim.spawn(worker("fast", 1.0), name="fast")
        sim.spawn(worker("slow", 2.0), name="slow")
        sim.run()
        assert ("fast", 2.0) in trace
        assert ("slow", 2.0) in trace


class TestRunawayProtection:
    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(0.0, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=1000)

    def test_run_while_predicate(self):
        sim = Simulator()
        count = [0]
        sim.schedule_recurring(1.0, lambda: count.__setitem__(0, count[0] + 1))
        sim.run_while(lambda: count[0] < 5)
        assert count[0] == 5


class TestHeapHygiene:
    """Satellite coverage: cancelled-entry purge x RecurringEvent re-arm."""

    def test_pending_entries_snapshot(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        cancelled = sim.schedule(2.0, lambda: None)
        cancelled.cancel()
        assert sorted(sim.pending_entries()) == [(1.0, False), (2.0, True)]

    def test_prune_drops_only_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        sim.prune()
        assert sim.pending_entries() == [(1.0, False)]

    def test_run_until_purges_through_prune(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            Simulator, "prune", lambda self: calls.append(self.now)
        )
        sim = Simulator()
        sim.schedule(2.0, lambda: None).cancel()
        sim.run_until(1.0)
        assert calls == [1.0]

    def test_recurring_rearm_storm_does_not_grow_heap(self):
        # A sysfs set_period storm: cancel + re-create the recurring event
        # many times between windows.  Each cancel strands one entry until
        # the next purge; the heap must never accumulate them.
        sim = Simulator()
        fired = []
        recurring = sim.schedule_recurring(1e-3, lambda: fired.append(sim.now))
        for index in range(50):
            recurring.cancel()
            recurring = sim.schedule_recurring(1e-3, lambda: fired.append(sim.now))
            sim.run_until(sim.now + 1e-4)
            assert len(sim.pending_entries()) == 1, f"iteration {index}"
        sim.run_until(sim.now + 5e-3)
        assert len(fired) >= 4

    def test_rearmed_recurring_keeps_firing(self):
        sim = Simulator()
        count = [0]
        recurring = sim.schedule_recurring(1.0, lambda: count.__setitem__(0, count[0] + 1))
        sim.run_until(2.5)
        assert count[0] == 2
        recurring.cancel()
        recurring = sim.schedule_recurring(0.5, lambda: count.__setitem__(0, count[0] + 1))
        sim.run_until(4.5)
        assert count[0] == 6
        assert not any(cancelled for _, cancelled in sim.pending_entries())

    def test_cancelled_recurring_purged_while_live_head_waits(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)  # live head beyond the window
        recurring = sim.schedule_recurring(5.0, lambda: None)
        recurring.cancel()
        sim.run_until(1.0)
        assert sim.pending_entries() == [(10.0, False)]


class _Log(SimObserver):
    def __init__(self, name, calls):
        self.name = name
        self.calls = calls

    def after_step(self, simulator, event_time):
        self.calls.append((self.name, "step", event_time))

    def after_event(self, callback, advanced_s, wall_s):
        assert wall_s >= 0.0
        self.calls.append((self.name, "event", callback, advanced_s))

    def after_run_until(self, simulator):
        self.calls.append((self.name, "run_until", simulator.now))


class TestObservers:
    """One observer tuple: any number of observers, any attach order."""

    def test_attach_is_idempotent_and_detach_removes(self):
        sim = Simulator()
        first, second = SimObserver(), SimObserver()
        sim.attach(first)
        sim.attach(second)
        sim.attach(first)
        assert sim.observers == (first, second)
        sim.detach(first)
        assert sim.observers == (second,)
        sim.detach(first)  # not attached: no-op
        sim.detach(second)
        assert sim.observers == ()

    def test_every_observer_sees_every_hook_in_attach_order(self):
        sim = Simulator()
        calls = []
        sim.attach(_Log("a", calls))
        sim.attach(_Log("b", calls))

        def tick():
            calls.append(("callback",))

        sim.schedule(2.0, tick)
        sim.run_until(3.0)
        assert calls == [
            ("a", "step", 2.0),
            ("b", "step", 2.0),
            ("callback",),
            ("a", "event", tick, 2.0),
            ("b", "event", tick, 2.0),
            ("a", "run_until", 3.0),
            ("b", "run_until", 3.0),
        ]

    def test_base_observer_is_a_complete_no_op(self):
        observed, bare = Simulator(), Simulator()
        observed.attach(SimObserver())
        for sim in (observed, bare):
            fired = []
            sim.schedule(1.0, lambda: fired.append(sim.now))
            sim.schedule_recurring(0.25, lambda: None)
            sim.run_until(2.0)
            assert fired == [1.0]
        assert observed.processed_events == bare.processed_events
        assert observed.now == bare.now
        # A post-mortem is the job's trace ring, not an observer hook.
        hooks = sorted(name for name in vars(SimObserver) if not name.startswith("_"))
        assert hooks == [
            "after_event",
            "after_run_until",
            "after_step",
            "on_fault_window",
            "on_ocm",
            "on_regulator_request",
        ]

    def test_observer_attached_mid_run_starts_at_next_event(self):
        sim = Simulator()
        calls = []
        late = _Log("late", calls)
        sim.schedule(1.0, lambda: sim.attach(late))
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert [call[:2] for call in calls] == [("late", "step"), ("late", "event")]
