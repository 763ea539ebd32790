"""Disabled-path cost of the telemetry + profiler hooks in the dispatch loop.

The paper's whole argument for the polling countermeasure is that its
steady-state cost is negligible (Table 2: 0.28% mean SPEC slowdown).
The reproduction's observability layer must hold itself to the same
standard: when no observer is attached, the dispatch loop pays one
truth test of the simulator's observer tuple per event, and this
benchmark pins that cost against a hook-free baseline.

The baseline is a :class:`Simulator` subclass whose ``step()`` is the
same dispatch body with the hook checks deleted.  Both simulators
process an identical pre-scheduled event storm; timing interleaves the
two and keeps the minimum of many repeats, which discards scheduler
noise rather than averaging it in.  The relative overhead must stay
within the Table 2 sub-percent regime (budget configurable via
``REPRO_OVERHEAD_BUDGET``), padded by the measured noise floor of the
baseline raced against itself.
"""

from __future__ import annotations

import heapq
import json
import os
from time import perf_counter

from repro.kernel.sim import Simulator

from conftest import record_trajectory, write_artifact

#: Relative-overhead budget for the disabled hook path (1% default —
#: the same order as Table 2's 0.28% headline, with CI headroom).
BUDGET_ENV = "REPRO_OVERHEAD_BUDGET"
DEFAULT_BUDGET = 0.01

EVENTS_PER_RUN = 20_000
REPEATS = 25


class BareSimulator(Simulator):
    """The dispatch loop with the observer check deleted."""

    def step(self) -> bool:  # noqa: D102 - same contract as Simulator.step
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry.event.cancelled:
                continue
            self._now = entry.time
            self.processed_events += 1
            self._processed_counter.inc()
            entry.event.callback()
            return True
        return False


def _storm(simulator: Simulator, events: int) -> None:
    """Schedule ``events`` no-op timers at distinct times."""
    callback = lambda: None  # noqa: E731 - identical object for both runs
    for index in range(events):
        simulator.schedule((index + 1) * 1e-6, callback)


def _drain(factory) -> float:
    simulator = factory()
    _storm(simulator, EVENTS_PER_RUN)
    start = perf_counter()
    simulator.run()
    elapsed = perf_counter() - start
    assert simulator.processed_events == EVENTS_PER_RUN
    return elapsed


def _min_interleaved(factories) -> list:
    """Min-of-N wall time per factory, interleaving the contenders."""
    best = [float("inf")] * len(factories)
    for _ in range(REPEATS):
        for index, factory in enumerate(factories):
            best[index] = min(best[index], _drain(factory))
    return best


def test_disabled_hooks_cost_within_table2_budget():
    budget = float(os.environ.get(BUDGET_ENV, DEFAULT_BUDGET))
    # Three contenders, interleaved: the bare loop twice (its spread is
    # the noise floor of this machine right now) and the real loop with
    # both hooks detached.
    bare_a, bare_b, hooked = _min_interleaved(
        [BareSimulator, BareSimulator, Simulator]
    )
    bare = min(bare_a, bare_b)
    noise = abs(bare_a - bare_b) / bare
    overhead = (hooked - bare) / bare
    allowance = budget + 2.0 * noise
    artifact = {
        "events_per_run": EVENTS_PER_RUN,
        "repeats": REPEATS,
        "bare_s": bare,
        "hooked_s": hooked,
        "noise_floor": noise,
        "relative_overhead": overhead,
        "budget": budget,
        "allowance": allowance,
        "within_budget": overhead <= allowance,
    }
    write_artifact(
        "telemetry_overhead.json",
        json.dumps(artifact, sort_keys=True, indent=2),
    )
    record_trajectory(
        "telemetry_overhead",
        "relative_overhead",
        overhead,
        unit="ratio",
        context={"events_per_run": EVENTS_PER_RUN, "repeats": REPEATS},
    )
    assert overhead <= allowance, (
        f"disabled-hook dispatch overhead {overhead * 100:.2f}% exceeds "
        f"budget {budget * 100:.2f}% + noise floor {noise * 100:.2f}%"
    )
