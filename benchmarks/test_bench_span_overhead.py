"""Cost of span recording in the job execution pipeline.

Span tracing follows the telemetry layer's rule: observability must not
tax the experiment.  Every job attempt runs under a
:class:`~repro.observe.spans.SpanRecorder`, and each phase it marks costs
a couple of dict writes plus its share of the span export.  That cost is
microseconds against a millisecond of vectorized work per sweep row, far
below the run-to-run spread of whole-batch wall times, so racing two
batch totals cannot resolve it.  The benchmark measures the two factors
apart instead, each as the minimum of many repeats:

* the per-phase cost: a tight loop marking phases on the real recorder,
  minus the same loop on a recorder whose ``phase()`` is
  ``NULL_SPANS.phase`` (begin, finish and export included on both);
* the bare wall time of the batch shards a paper-resolution sweep runs
  (:class:`~repro.engine.jobs.BatchCharacterizationJob`), executed with
  that bare recorder swapped in for ``execute_job``'s.

The relative overhead is phases per sweep × per-phase cost ÷ the bare
sweep time, pinned to the same sub-percent regime as the telemetry-hook
budget (``REPRO_OVERHEAD_BUDGET``, default 1%).
"""

from __future__ import annotations

import json
import os
from time import perf_counter

from repro.core.characterization import CharacterizationConfig
from repro.engine.jobs import CharacterizationJob, execute_job
from repro.observe import spans
from repro.telemetry import NULL_SPANS

from conftest import record_trajectory, write_artifact

BUDGET_ENV = "REPRO_OVERHEAD_BUDGET"
DEFAULT_BUDGET = 0.01

#: Min-of-N repeats of the sweep and of the phase loop.
REPEATS = 15

#: Phases marked per timed loop: enough that the loop runs for
#: milliseconds, so timer resolution is irrelevant.
LOOP_PHASES = 2_000

#: The shards of one paper-resolution Comet Lake sweep, as the engine
#: schedules them (eight vectorized rows per job, one phase per row).
SHARDS = tuple(
    CharacterizationJob(
        codename="Comet Lake", config=CharacterizationConfig(), seed=5
    ).batch_jobs()
)


RECORDER = spans.SpanRecorder


class BareRecorder(RECORDER):
    """The span recorder with phase marking deleted."""

    def phase(self, name: str, *, sim_start_s: float = 0.0):  # noqa: D102
        return NULL_SPANS.phase(name)


def _sweep(recorder) -> tuple:
    """Wall time and phase count of the shards under ``recorder``."""
    spans.SpanRecorder = recorder
    try:
        phases = 0
        start = perf_counter()
        for job in SHARDS:
            result = execute_job(job)
            phases += sum(1 for record in result.spans if record["kind"] == "phase")
        return perf_counter() - start, phases
    finally:
        spans.SpanRecorder = RECORDER


def _phase_loop(recorder_class) -> float:
    """Wall time of one job's worth of ``LOOP_PHASES`` marked phases."""
    recorder = recorder_class()
    start = perf_counter()
    recorder.begin_job(fingerprint="0" * 64, kind="bench", attempt=1, context=None)
    for _ in range(LOOP_PHASES):
        with recorder.phase("row@2.4GHz"):
            pass
    recorder.finish_job()
    recorder.export()
    return perf_counter() - start


def test_span_recording_cost_within_budget():
    budget = float(os.environ.get(BUDGET_ENV, DEFAULT_BUDGET))
    _, phases = _sweep(RECORDER)
    assert phases == sum(len(job.frequencies_ghz) for job in SHARDS)
    assert _sweep(BareRecorder)[1] == 0

    sweep_s = min(_sweep(BareRecorder)[0] for _ in range(REPEATS))
    real_s = bare_s = float("inf")
    for _ in range(REPEATS):
        real_s = min(real_s, _phase_loop(RECORDER))
        bare_s = min(bare_s, _phase_loop(BareRecorder))
    phase_cost_s = max(0.0, real_s - bare_s) / LOOP_PHASES
    overhead = phases * phase_cost_s / sweep_s
    artifact = {
        "jobs_per_run": len(SHARDS),
        "phases_per_run": phases,
        "repeats": REPEATS,
        "disabled_s": sweep_s,
        "phase_cost_s": phase_cost_s,
        "relative_overhead": overhead,
        "budget": budget,
        "within_budget": overhead <= budget,
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
        context={"jobs_per_run": len(SHARDS), "repeats": REPEATS},
    )
    assert overhead <= budget, (
        f"span recording overhead {overhead * 100:.3f}% "
        f"({phases} phases x {phase_cost_s * 1e6:.2f} us over "
        f"{sweep_s * 1e3:.1f} ms) exceeds budget {budget * 100:.2f}%"
    )
