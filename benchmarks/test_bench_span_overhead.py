"""Cost of span recording in the job execution pipeline.

Span tracing follows the telemetry layer's rule: observability must not
tax the experiment.  Every job attempt runs under a
:class:`~repro.observe.spans.SpanRecorder`, and each phase it marks costs
a couple of dict writes.  The baseline is a recorder subclass whose
``phase()`` marks nothing, swapped in for ``execute_job``.  This
benchmark races the same serial job batch under the baseline against
itself (the spread is the machine's noise floor right now) and against
the real recorder, and pins the relative overhead to the same
sub-percent regime as the telemetry-hook budget
(``REPRO_OVERHEAD_BUDGET``, default 1%).
"""

from __future__ import annotations

import json
import os
from time import perf_counter

from repro.core.characterization import CharacterizationConfig
from repro.engine.jobs import CharacterizationRowJob, execute_job
from repro.observe import spans
from repro.telemetry import NULL_SPANS

from conftest import record_trajectory, write_artifact

BUDGET_ENV = "REPRO_OVERHEAD_BUDGET"
DEFAULT_BUDGET = 0.01

REPEATS = 25

#: A small serial batch: three paper-resolution sweep rows, each ~10ms
#: of real work, so the ratio reflects spans against realistic jobs.
JOBS = tuple(
    CharacterizationRowJob(
        codename="Comet Lake",
        frequency_ghz=frequency,
        config=CharacterizationConfig(),
        seed=5,
    )
    for frequency in (1.2, 2.4, 3.6)
)


RECORDER = spans.SpanRecorder


class BareRecorder(RECORDER):
    """The span recorder with phase marking deleted."""

    def phase(self, name: str, *, sim_start_s: float = 0.0):  # noqa: D102
        return NULL_SPANS.phase(name)


def _drain(recorder) -> float:
    spans.SpanRecorder = recorder
    try:
        start = perf_counter()
        for job in JOBS:
            result = execute_job(job)
            marked = any(record["kind"] == "phase" for record in result.spans)
            assert marked is (recorder is RECORDER)
        return perf_counter() - start
    finally:
        spans.SpanRecorder = RECORDER


def _min_interleaved(recorders) -> list:
    best = [float("inf")] * len(recorders)
    for _ in range(REPEATS):
        for index, recorder in enumerate(recorders):
            best[index] = min(best[index], _drain(recorder))
    return best


def test_span_recording_cost_within_budget():
    budget = float(os.environ.get(BUDGET_ENV, DEFAULT_BUDGET))
    off_a, off_b, on = _min_interleaved([BareRecorder, BareRecorder, RECORDER])
    off = min(off_a, off_b)
    noise = abs(off_a - off_b) / off
    overhead = (on - off) / off
    allowance = budget + 2.0 * noise
    artifact = {
        "jobs_per_run": len(JOBS),
        "repeats": REPEATS,
        "disabled_s": off,
        "enabled_s": on,
        "noise_floor": noise,
        "relative_overhead": overhead,
        "budget": budget,
        "allowance": allowance,
        "within_budget": overhead <= allowance,
    }
    write_artifact(
        "span_overhead.json",
        json.dumps(artifact, sort_keys=True, indent=2),
    )
    record_trajectory(
        "span_overhead",
        "relative_overhead",
        overhead,
        unit="ratio",
        context={"jobs_per_run": len(JOBS), "repeats": REPEATS},
    )
    assert overhead <= allowance, (
        f"span recording overhead {overhead * 100:.2f}% exceeds budget "
        f"{budget * 100:.2f}% + noise floor {noise * 100:.2f}%"
    )
